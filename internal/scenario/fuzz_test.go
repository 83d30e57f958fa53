package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioDecode holds the scenario file codec to three properties on
// inputs nobody wrote: Decode never panics; a spec it accepts encodes; and
// that encoding is canonical — it decodes, and what it decodes to encodes to
// the same bytes. The accepted spec and the re-decoded one are compared
// through their encodings, not reflect.DeepEqual: an explicit empty list
// ("events": []) decodes non-nil and the canonical form omits it. Seeds are
// the registry's files, the matchday example and a few inputs the codec
// must reject.
func FuzzScenarioDecode(f *testing.F) {
	files, err := filepath.Glob("specs/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no registry files: %v", err)
	}
	for _, path := range append(files, "../../examples/scenarios/matchday.json") {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, in := range []string{
		`{"name": "x", "events": []}`,
		`{"nAme": "x"}`,
		`{"name": "x", "events": [{"kind": "zap", "from": 0.5, "to": 0.6, "Fraction": 0.4}]}`,
		`{"name": "x", "events": [{"kind": 3, "from": 0, "to": 1}]}`,
		`{"name": "x", "events": [{"kind": "arrivals", "from": 0.6, "to": 0.2, "shape": "wave"}]}`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := DecodeBytes(in)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Encode(&first, s); err != nil {
			t.Fatalf("accepted spec does not encode: %v\ninput: %q", err, in)
		}
		canon, err := DecodeBytes(first.Bytes())
		if err != nil {
			t.Fatalf("own encoding rejected: %v\ninput: %q\nencoded: %s", err, in, first.Bytes())
		}
		var second bytes.Buffer
		if err := Encode(&second, canon); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding not canonical:\n%s\n---\n%s\ninput: %q", first.Bytes(), second.Bytes(), in)
		}
	})
}
