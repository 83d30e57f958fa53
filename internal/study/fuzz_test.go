package study

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStudyDecode holds the study file codec to three properties on inputs
// nobody wrote: Decode never panics; a study it accepts encodes; and that
// encoding is canonical — it decodes, and what it decodes to encodes to the
// same bytes. The accepted study and the re-decoded one are compared through
// their encodings, not reflect.DeepEqual: an explicit empty list
// ("apps": []) decodes non-nil and the canonical form omits it. Seeds are the
// registry's files and a few inputs the codec must reject.
func FuzzStudyDecode(f *testing.F) {
	files, err := filepath.Glob("specs/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no registry files: %v", err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, in := range []string{
		`{"name": "x", "apps": []}`,
		`{"name": "x", "Duration": "1m"}`,
		`{"name": "x", "scenarios": ["flashcrowd", {"spec": {"name": "y", "Events": []}}]}`,
		`{"name": "x", "variants": [{}, {"name": "blind", "blind": true}], "duration": 5}`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		st, err := DecodeBytes(in)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Encode(&first, st); err != nil {
			t.Fatalf("accepted study does not encode: %v\ninput: %q", err, in)
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
