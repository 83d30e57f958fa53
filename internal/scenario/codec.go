package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

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

// UnmarshalJSON pins the schema to named kinds: a raw int would otherwise
// decode through the underlying type and silently mean whatever the enum
// order happens to be today.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("scenario: event kind must be a name string, got %s", b)
	}
	return k.UnmarshalText([]byte(name))
}

// UnmarshalJSON pins the schema to named shapes (see Kind.UnmarshalJSON).
func (s *Shape) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("scenario: arrival shape must be a name string, got %s", b)
	}
	return s.UnmarshalText([]byte(name))
}

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
