package study

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"napawine/internal/scenario"
)

// TestRegisteredStudiesRoundTrip is the codec's headline contract: every
// registered study must survive Encode → Decode → Encode bit-for-bit, so a
// file-authored copy of a registered study is the same study.
func TestRegisteredStudiesRoundTrip(t *testing.T) {
	for _, name := range Names() {
		st, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var first strings.Builder
		if err := Encode(&first, st); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		decoded, err := DecodeBytes([]byte(first.String()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(st, decoded) {
			t.Errorf("%s: decoded study differs:\n  reg  %+v\n  file %+v", name, st, decoded)
		}
		var second strings.Builder
		if err := Encode(&second, decoded); err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if first.String() != second.String() {
			t.Errorf("%s: encode not stable:\n--- first ---\n%s\n--- second ---\n%s",
				name, first.String(), second.String())
		}
	}
}

// TestDecodeRejectsUnknownField: a misspelt field and a field this codec
// once had and dropped are both errors that name the field in a study file
// (also what a fleet worker decodes at join time), never silently ignored.
func TestDecodeRejectsUnknownField(t *testing.T) {
	for _, tc := range []struct{ body, field string }{
		{`{"name": "x", "sedes": [1, 2]}`, "sedes"},
		{`{"name": "x", "lean_ledger": true}`, "lean_ledger"},
		{`{"name": "x", "queue_depths": [2], "loss_mode": "tail-drop"}`, "loss_mode"},
		{`{"name": "x", "shards": 2}`, "shards"},
		{`{"name":"x","queue_depth":2}`, "queue_depth"},
	} {
		want := fmt.Sprintf("unknown field %q", tc.field)
		if _, err := DecodeBytes([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("study %s: unknown field accepted: %v", tc.body, err)
		}
	}
}

func TestDecodeRejectsRawDuration(t *testing.T) {
	_, err := DecodeBytes([]byte(`{"name": "x", "duration": 300000000000}`))
	if err == nil {
		t.Error("raw nanosecond duration accepted")
	}
}

func TestDecodeRejectsUnknownAxisValues(t *testing.T) {
	for _, body := range []string{
		`{"name": "x", "apps": ["Joost"]}`,
		`{"name": "x", "strategies": ["newest"]}`,
		`{"name": "x", "scenarios": ["worldcup"]}`,
		`{"name": "x", "metrics": ["vibes"]}`,
	} {
		if _, err := DecodeBytes([]byte(body)); err == nil {
			t.Errorf("bad axis value accepted: %s", body)
		}
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, err := DecodeBytes([]byte(`{"name": "x"} {"name": "y"}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing data accepted: %v", err)
	}
}

// TestScenarioAxisForms: a scenario-axis entry decodes from a bare name or
// from an object with an inline spec, strictly in both forms.
func TestScenarioAxisForms(t *testing.T) {
	st, err := DecodeBytes([]byte(`{
		"name": "x",
		"scenarios": [
			"flashcrowd",
			{"spec": {"name": "inline", "events": [
				{"kind": "tracker-outage", "from": 0.3, "to": 0.5}
			]}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Scenarios) != 2 {
		t.Fatalf("scenarios = %d, want 2", len(st.Scenarios))
	}
	if st.Scenarios[0].Name != "flashcrowd" || st.Scenarios[0].Spec != nil {
		t.Errorf("bare-name entry = %+v", st.Scenarios[0])
	}
	if st.Scenarios[1].Spec == nil || st.Scenarios[1].Label() != "inline" {
		t.Errorf("inline entry = %+v", st.Scenarios[1])
	}

	// Unknown fields inside the object form and inside the inline spec are
	// both loud errors (the inline spec inherits the scenario codec's
	// strictness).
	for _, body := range []string{
		`{"name": "x", "scenarios": [{"nmae": "flashcrowd"}]}`,
		`{"name": "x", "scenarios": [{"spec": {"name": "i", "evnets": []}}]}`,
		`{"name": "x", "scenarios": [{"spec": {"name": "i", "events": [{"kind": 3, "from": 0, "to": 1}]}}]}`,
		`{"name": "x", "scenarios": [{}]}`,
		`{"name": "x", "scenarios": [{"name": "flashcrowd", "spec": {"name": "i"}}]}`,
	} {
		if _, err := DecodeBytes([]byte(body)); err == nil {
			t.Errorf("malformed scenario entry accepted: %s", body)
		}
	}

	// A registered scenario has one spelling, its bare name: the object
	// form carries an inline spec and nothing else.
	_, err = DecodeBytes([]byte(`{"name": "x", "scenarios": [{"name": "flashcrowd"}]}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "name"`) {
		t.Errorf(`{"name": "flashcrowd"} entry: err = %v, want unknown field "name"`, err)
	}
}

// TestEncodeRejectsNilStudy: there is no file form of no study.
func TestEncodeRejectsNilStudy(t *testing.T) {
	var b strings.Builder
	if err := Encode(&b, nil); err == nil {
		t.Error("nil study encoded")
	}
}

// TestInlineSpecRoundTrip: an inline scenario spec survives the study codec
// exactly like it survives the scenario codec.
func TestInlineSpecRoundTrip(t *testing.T) {
	reg, err := scenario.ByName("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	st := &Study{Name: "x", Scenarios: []Scenario{{Spec: reg}}}
	var b strings.Builder
	if err := Encode(&b, st); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBytes([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded.Scenarios[0].Spec, reg) {
		t.Errorf("inline spec did not round-trip:\n  in  %+v\n  out %+v", reg, decoded.Scenarios[0].Spec)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("does/not/exist.json"); err == nil {
		t.Error("missing file accepted")
	}
}
