package study

import (
	"embed"
	"fmt"
	"slices"
	"strings"
)

// specs holds each registered study once, as the canonical file Encode
// writes for it: specs/<name>.json. The README's study table carries each
// one's rationale.
//
//go:embed specs/*.json
var specs embed.FS

// names is the registry's presentation order, the order
// `napawine -list studies` prints.
var names = []string{"strategy-comparison", "blind-ablation", "awareness-ablation"}

// Names lists the registered studies in presentation order.
func Names() []string { return slices.Clone(names) }

// ByName decodes the named study's file. Each call returns a fresh value, so
// a caller mutating its copy (e.g. a CLI -duration override) cannot corrupt
// the registry.
func ByName(name string) (*Study, error) {
	if !slices.Contains(names, name) {
		return nil, fmt.Errorf("study: unknown study %q (want %s)",
			name, strings.Join(names, ", "))
	}
	b, err := specs.ReadFile("specs/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	st, err := DecodeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("specs/%s.json: %w", name, err)
	}
	return st, nil
}
