package scenario

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestEveryRegisteredScenarioRoundTrips: the codec contract — each builtin
// spec survives Encode→Decode bit-for-bit and still validates afterwards.
func TestEveryRegisteredScenarioRoundTrips(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: decode: %v\nencoded:\n%s", name, err, buf.String())
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s does not round-trip:\n want %+v\n got  %+v\nencoded:\n%s", name, s, back, buf.String())
		}
		if err := back.Validate(); err != nil {
			t.Errorf("%s: decoded spec no longer validates: %v", name, err)
		}
	}
}

// TestEncodedKindsAreNames: a file spec must never contain raw enum ints —
// that is the whole point of the named codec.
func TestEncodedKindsAreNames(t *testing.T) {
	s, _ := ByName("regional")
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"kind": "regional-churn"`, `"kind": "country-throttle"`, `"country": "CN"`} {
		if !strings.Contains(out, want) {
			t.Errorf("encoded spec missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"kind": 0`) || strings.Contains(out, `"kind":0`) {
		t.Errorf("encoded spec leaks raw kind ints:\n%s", out)
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	_, err := DecodeBytes([]byte(`{"name":"x","events":[{"kind":"meteor","from":0,"to":1}]}`))
	if err == nil {
		t.Fatal("unknown kind name decoded")
	}
	if !strings.Contains(err.Error(), "meteor") || !strings.Contains(err.Error(), "zap") {
		t.Errorf("error %q should name the bad kind and list valid ones", err)
	}
}

func TestDecodeRejectsUnknownShape(t *testing.T) {
	_, err := DecodeBytes([]byte(`{"name":"x","events":[{"kind":"arrivals","from":0,"to":1,"shape":"spike"}]}`))
	if err == nil {
		t.Fatal("unknown shape name decoded")
	}
}

func TestDecodeRejectsUnknownField(t *testing.T) {
	_, err := DecodeBytes([]byte(`{"name":"x","extr_peer_factor":1}`))
	if err == nil {
		t.Fatal("typo'd field decoded silently — it would run a different scenario than authored")
	}
}

func TestDecodeRejectsInvalidSpec(t *testing.T) {
	// Well-formed JSON, malformed scenario: validation must run at decode.
	_, err := DecodeBytes([]byte(`{"name":"x","events":[{"kind":"zap","from":0.2,"to":0.4}]}`))
	if err == nil {
		t.Fatal("zap without fraction/mean_stay decoded")
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, err := DecodeBytes([]byte(`{"name":"x"} {"name":"y"}`))
	if err == nil {
		t.Fatal("two concatenated specs decoded as one")
	}
}

func TestDecodeRejectsRawIntKind(t *testing.T) {
	_, err := DecodeBytes([]byte(`{"name":"x","events":[{"kind":3,"from":0,"to":1}]}`))
	if err == nil {
		t.Fatal("raw int kind decoded; the schema is named kinds only")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestMatchdayExampleLoads: the one shipped scenario file the registry does
// not hold, a composite of several event kinds, decodes and validates.
func TestMatchdayExampleLoads(t *testing.T) {
	s, err := LoadFile(filepath.Join("..", "..", "examples", "scenarios", "matchday.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "matchday" || len(s.Events) < 2 {
		t.Errorf("matchday decoded as %+v", s)
	}
}

func TestKindNamesCoverEveryKind(t *testing.T) {
	if len(kindNames.list) != int(Zap)+1 {
		t.Fatalf("%d kind names for %d kinds — a kind constant is missing its name", len(kindNames.list), int(Zap)+1)
	}
	for _, n := range kindNames.list {
		if n == "" {
			t.Fatal("kind with empty wire name")
		}
		k, err := kindNames.parse(n)
		if err != nil {
			t.Errorf("parse(%q): %v", n, err)
		}
		if k.String() != n {
			t.Errorf("name %q parses to kind whose String is %q", n, k)
		}
	}
	if _, err := kindNames.parse("Kind(7)"); err == nil {
		t.Error("String fallback form parsed as a kind")
	}
}

func TestShapeNamesRoundTrip(t *testing.T) {
	for _, n := range shapeNames.list {
		s, err := shapeNames.parse(n)
		if err != nil {
			t.Errorf("parse(%q): %v", n, err)
		}
		if s.String() != n {
			t.Errorf("shape name %q round-trips to %q", n, s)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig, _ := ByName("flashcrowd")
	cp := orig.Clone()
	cp.Name = "mutant"
	cp.Events[0].From = 0.99
	if orig.Name != "flashcrowd" || orig.Events[0].From == 0.99 {
		t.Errorf("Clone shares state with the original: %+v", orig)
	}
	if (*Spec)(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}
