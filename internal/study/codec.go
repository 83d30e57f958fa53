package study

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"napawine/internal/scenario"
	"napawine/internal/strictjson"
)

// This file is the study file codec, the same contract the scenario codec
// gives workload timelines: a strict JSON schema over Study in which every
// axis value travels by name, unknown fields are loud errors, and every
// registered study round-trips through Encode/Decode unchanged. Durations
// travel in time.Duration notation ("5m"), never raw nanoseconds; a
// scenario-axis entry is either a registered name or an object carrying an
// inline timeline in the scenario file schema.
//
// Example:
//
//	{
//	  "name": "strategy-comparison",
//	  "apps": ["PPLive", "SopCast", "TVAnts"],
//	  "strategies": ["urgent-random", "latest-useful", "rarest", "deadline"],
//	  "trials": 3,
//	  "duration": "2m"
//	}

// scenarioJSON is the object form of a scenario-axis entry.
type scenarioJSON struct {
	Spec *scenario.Spec `json:"spec"`
}

// MarshalJSON encodes a name-only cell as a bare string and an inline-spec
// cell as an object carrying only the spec (the inline spec's own name is
// the cell's identity), so the common case stays one readable token.
func (s Scenario) MarshalJSON() ([]byte, error) {
	if s.Spec == nil {
		return json.Marshal(s.Name)
	}
	return json.Marshal(scenarioJSON{Spec: s.Spec})
}

// UnmarshalJSON accepts both forms, strictly: a bare registered name, or an
// object carrying an inline spec and nothing else. Inline specs inherit the
// scenario codec's strictness (named kinds, unknown fields rejected).
func (s *Scenario) UnmarshalJSON(b []byte) error {
	trimmed := bytes.TrimSpace(b)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		var name string
		if err := json.Unmarshal(b, &name); err != nil {
			return fmt.Errorf("study: bad scenario entry %s", b)
		}
		*s = Scenario{Name: name}
		return nil
	}
	var obj scenarioJSON
	if err := strictjson.Decode(bytes.NewReader(b), &obj); err != nil {
		return fmt.Errorf("study: bad scenario entry: %w", err)
	}
	if obj.Spec == nil {
		return fmt.Errorf("study: scenario entry without a spec")
	}
	*s = Scenario{Spec: obj.Spec}
	return nil
}

// Encode writes the study as indented JSON.
func Encode(w io.Writer, st *Study) error {
	if st == nil {
		return fmt.Errorf("study: encode nil study")
	}
	if err := strictjson.Write(w, st); err != nil {
		return fmt.Errorf("study: encode %s: %w", st.Name, err)
	}
	return nil
}

// Decode parses one JSON study and validates it. Unknown fields, unknown
// axis values and malformed durations are all errors — a file study must
// fail loudly at load time, never silently run a different grid.
func Decode(r io.Reader) (*Study, error) {
	var st Study
	if err := strictjson.Decode(r, &st); err != nil {
		return nil, fmt.Errorf("study: decode: %w", err)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

// DecodeBytes is Decode over an in-memory study.
func DecodeBytes(b []byte) (*Study, error) { return Decode(bytes.NewReader(b)) }

// LoadFile reads and decodes one study file.
func LoadFile(path string) (*Study, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	st, err := DecodeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}
