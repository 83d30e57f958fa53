package scenario

import (
	"embed"
	"fmt"
	"slices"
	"strings"
)

// specs holds each registered scenario once, as the canonical file Encode
// writes for it: specs/<name>.json. The README's scenario table carries
// each one's rationale.
//
//go:embed specs/*.json
var specs embed.FS

// names is the registry's presentation order, the order
// `napawine -list scenarios` prints.
var names = []string{
	"steady", "flashcrowd", "diurnal", "partition", "outage",
	"throttle", "failover", "zapping", "regional",
}

// Names lists the registered scenarios in presentation order.
func Names() []string { return slices.Clone(names) }

// ByName decodes the named scenario's file. Each call returns a fresh value,
// so a caller mutating its copy (e.g. overriding Buckets) cannot corrupt the
// registry.
func ByName(name string) (*Spec, error) {
	if !slices.Contains(names, name) {
		return nil, fmt.Errorf("scenario: unknown scenario %q (want %s)",
			name, strings.Join(names, ", "))
	}
	b, err := specs.ReadFile("specs/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := DecodeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("specs/%s.json: %w", name, err)
	}
	return s, nil
}
