package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"napawine/internal/strictjson"
)

// This file is the scenario file codec: a JSON schema over Spec in which
// event kinds and arrival shapes travel as their wire names ("arrivals",
// "zap", "burst", ...), never as raw enum ints. A file-authored workload
// therefore needs no recompile and stays readable in review. Decode is
// strict — unknown fields and unknown names are loud errors, because a
// typo'd knob that silently defaults would "run" a different scenario than
// the one the author wrote.
//
// Example:
//
//	{
//	  "name": "zapping",
//	  "description": "program-boundary surfing",
//	  "events": [
//	    {"kind": "zap", "from": 0.5, "to": 0.6, "fraction": 0.4, "mean_stay": 0.05}
//	  ]
//	}

// enumNames is an enum's wire-name table: list[v] names value v. Kind and
// Shape each keep one, so both spell their names and errors one way.
type enumNames[T ~int] struct {
	what string // "event kind": the noun error messages use
	typ  string // "Kind": String's fallback for an unnamed value
	list []string
}

func (e enumNames[T]) name(v T) string {
	if v >= 0 && int(v) < len(e.list) {
		return e.list[v]
	}
	return fmt.Sprintf("%s(%d)", e.typ, int(v))
}

func (e enumNames[T]) parse(name string) (T, error) {
	if i := slices.Index(e.list, name); i >= 0 {
		return T(i), nil
	}
	return 0, fmt.Errorf("scenario: unknown %s %q (want %s)", e.what, name, strings.Join(e.list, ", "))
}

func (e enumNames[T]) marshal(v T) ([]byte, error) {
	if v >= 0 && int(v) < len(e.list) {
		return []byte(e.list[v]), nil
	}
	return nil, fmt.Errorf("scenario: unencodable %s %d", e.what, int(v))
}

// unmarshalJSON pins the schema to names: a raw int would otherwise decode
// through the underlying type and silently mean whatever the enum order
// happens to be today.
func (e enumNames[T]) unmarshalJSON(b []byte, v *T) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("scenario: %s must be a name string, got %s", e.what, b)
	}
	parsed, err := e.parse(name)
	if err == nil {
		*v = parsed
	}
	return err
}

// UnmarshalJSON decodes a kind from its wire name.
func (k *Kind) UnmarshalJSON(b []byte) error { return kindNames.unmarshalJSON(b, k) }

// UnmarshalJSON decodes a shape from its wire name.
func (s *Shape) UnmarshalJSON(b []byte) error { return shapeNames.unmarshalJSON(b, s) }

// Encode writes the spec as indented JSON. Every registered scenario
// round-trips through Encode/Decode unchanged.
func Encode(w io.Writer, s *Spec) error {
	if s == nil {
		return fmt.Errorf("scenario: encode nil spec")
	}
	if err := strictjson.Write(w, s); err != nil {
		return fmt.Errorf("scenario: encode %s: %w", s.Name, err)
	}
	return nil
}

// Decode parses one JSON spec and validates it. Unknown fields, unknown
// kind/shape names and malformed events are all errors — a file spec must
// fail loudly at load time, never silently no-op at run time.
func Decode(r io.Reader) (*Spec, error) {
	var s Spec
	if err := strictjson.Decode(r, &s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeBytes is Decode over an in-memory spec.
func DecodeBytes(b []byte) (*Spec, error) { return Decode(bytes.NewReader(b)) }

// LoadFile reads and decodes one scenario file.
func LoadFile(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := DecodeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
