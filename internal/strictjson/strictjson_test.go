package strictjson

import (
	"bytes"
	"strings"
	"testing"
)

type doc struct {
	Name string `json:"name"`
	N    int    `json:"n,omitempty"`
}

func TestDecodeIsStrict(t *testing.T) {
	for _, c := range []struct {
		name, in string
		ok       bool
	}{
		{"one object", `{"name":"a","n":2}`, true},
		{"surrounding white space", " \n{\"name\":\"a\"}\n\t ", true},
		{"unknown field", `{"name":"a","bogus":1}`, false},
		{"second object", `{"name":"a"}{"name":"b"}`, false},
		{"trailing garbage", `{"name":"a"} }`, false},
		{"truncated", `{"name":`, false},
		{"empty", ``, false},
	} {
		var d doc
		err := Decode(strings.NewReader(c.in), &d)
		if (err == nil) != c.ok {
			t.Errorf("%s: Decode(%q) error %v, want ok=%v", c.name, c.in, err, c.ok)
		}
		if c.ok && d.Name != "a" {
			t.Errorf("%s: decoded %+v", c.name, d)
		}
	}
}

// oneWrite fails the test when a value arrives in more than one Write: the
// spool and the study digest both rely on whole documents.
type oneWrite struct {
	bytes.Buffer
	calls int
}

func (w *oneWrite) Write(b []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(b)
}

func TestWriteRoundTrips(t *testing.T) {
	var w oneWrite
	if err := Write(&w, doc{Name: "a", N: 2}); err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"name\": \"a\",\n  \"n\": 2\n}\n"; w.String() != want || w.calls != 1 {
		t.Fatalf("Write produced %q in %d calls, want %q in 1", w.String(), w.calls, want)
	}
	var d doc
	if err := Decode(&w.Buffer, &d); err != nil || d != (doc{Name: "a", N: 2}) {
		t.Fatalf("round trip: %+v, %v", d, err)
	}
	if err := Write(&w, func() {}); err == nil {
		t.Error("Write accepted a value JSON cannot represent")
	}
}
