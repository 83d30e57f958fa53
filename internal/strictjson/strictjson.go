// Package strictjson is the one JSON reader and the one JSON writer behind
// every codec in the tree: scenario and study files, result and summary
// files, the fleet's spool records and its /fleet/v1 bodies. Each caller
// keeps its own error prefix; what "strict" means is decided here, once.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
)

// Decode reads exactly one JSON value from r into v. A field v does not
// declare is an error, and so is a key that names a field only when case is
// ignored ("nAme" for "name"), and anything but white space after the value:
// a typo'd knob must never silently default, a spelling the encoder never
// writes is not the field's spelling, and a second object is a malformed
// input, not something to ignore.
func Decode(r io.Reader, v any) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		return err
	}
	return exactKeys(tree, reflect.TypeOf(v))
}

var unmarshaler = reflect.TypeFor[json.Unmarshaler]()

// exactKeys walks a decoded JSON tree beside the type it was decoded into
// and requires every object key to be a field's exact JSON name, visiting
// keys in sorted order so the same input always names the same offence. A
// type with its own UnmarshalJSON reads its bytes itself and is not walked.
func exactKeys(v any, t reflect.Type) error {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if reflect.PointerTo(t).Implements(unmarshaler) {
		return nil
	}
	switch t.Kind() {
	case reflect.Struct, reflect.Map:
		obj, _ := v.(map[string]any)
		var fields map[string]reflect.Type
		if t.Kind() == reflect.Struct {
			fields = jsonFields(t)
		}
		for _, key := range slices.Sorted(maps.Keys(obj)) {
			elem, ok := fields[key]
			if fields == nil { // a map: every value has its element type
				elem, ok = t.Elem(), true
			}
			if !ok {
				for _, name := range slices.Sorted(maps.Keys(fields)) {
					if strings.EqualFold(name, key) {
						return fmt.Errorf("json: key %q must be spelled %q", key, name)
					}
				}
				return fmt.Errorf("json: unknown field %q", key)
			}
			if err := exactKeys(obj[key], elem); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		arr, _ := v.([]any)
		for _, e := range arr {
			if err := exactKeys(e, t.Elem()); err != nil {
				return err
			}
		}
	}
	return nil
}

// jsonFields maps each JSON name of struct type t to its field's type, the
// way encoding/json names them: the tag's name, else the Go name; "-" is
// skipped; an untagged embedded struct's fields are promoted unless a field
// of t already has the name.
func jsonFields(t reflect.Type) map[string]reflect.Type {
	out := map[string]reflect.Type{}
	var embedded []reflect.Type
	for i := range t.NumField() {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch {
		case tag == "-":
		case f.Anonymous && name == "" && ft.Kind() == reflect.Struct:
			embedded = append(embedded, ft)
		case !f.IsExported():
		case name != "":
			out[name] = f.Type
		default:
			out[f.Name] = f.Type
		}
	}
	for _, et := range embedded {
		for name, ft := range jsonFields(et) {
			if _, ok := out[name]; !ok {
				out[name] = ft
			}
		}
	}
	return out
}

// Write encodes v as two-space-indented JSON plus a final newline and hands
// it to w in one Write call.
func Write(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
