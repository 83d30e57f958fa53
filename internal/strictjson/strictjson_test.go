package strictjson

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/iotest"
)

type doc struct {
	Meta
	Name  string          `json:"name"`
	N     int             `json:"n,omitempty"`
	Items []item          `json:"items,omitempty"`
	Attrs map[string]item `json:"attrs,omitempty"`
}

// Meta's fields are promoted into doc's object, as encoding/json does.
type Meta struct {
	Tag string `json:"tag,omitempty"`
}

type item struct {
	Label string // untagged: the Go name is the JSON name
}

func TestDecodeIsStrict(t *testing.T) {
	for _, c := range []struct {
		name, in string
		ok       bool
		field    string // what a rejection must name
	}{
		{"one object", `{"name":"a","n":2}`, true, ""},
		{"explicit zero value", `{"name":"a","n":0,"items":[]}`, true, ""},
		{"nested object", `{"name":"a","items":[{"Label":"x"}]}`, true, ""},
		{"surrounding white space", " \n{\"name\":\"a\"}\n\t ", true, ""},
		{"promoted field", `{"name":"a","tag":"t"}`, true, ""},
		{"miscased promoted field", `{"name":"a","Tag":"t"}`, false, "Tag"},
		{"map of objects", `{"name":"a","attrs":{"k":{"Label":"x"}}}`, true, ""},
		{"miscased key in a map value", `{"name":"a","attrs":{"k":{"label":"x"}}}`, false, "label"},
		{"unknown field", `{"name":"a","bogus":1}`, false, "bogus"},
		{"miscased key", `{"nAme":"a"}`, false, "nAme"},
		{"miscased nested key", `{"name":"a","items":[{"Label":"x"},{"label":"y"}]}`, false, "label"},
		{"second object", `{"name":"a"}{"name":"b"}`, false, ""},
		{"trailing garbage", `{"name":"a"} }`, false, ""},
		{"truncated", `{"name":`, false, ""},
		{"empty", ``, false, ""},
	} {
		var d doc
		err := Decode(strings.NewReader(c.in), &d)
		if (err == nil) != c.ok || err != nil && !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Decode(%q) error %v, want ok=%v naming %q", c.name, c.in, err, c.ok, c.field)
		}
		if c.ok && d.Name != "a" {
			t.Errorf("%s: decoded %+v", c.name, d)
		}
	}
	failed := errors.New("read failed")
	if err := Decode(iotest.ErrReader(failed), new(doc)); err != failed {
		t.Errorf("Decode of a failing reader: %v, want its error", err)
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
	if err := Decode(&w.Buffer, &d); err != nil || d.Name != "a" || d.N != 2 {
		t.Fatalf("round trip: %+v, %v", d, err)
	}
	if err := Write(&w, func() {}); err == nil {
		t.Error("Write accepted a value JSON cannot represent")
	}
}
