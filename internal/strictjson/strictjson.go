// Package strictjson is the one JSON reader and the one JSON writer behind
// every codec in the tree: scenario and study files, result and summary
// files, the fleet's spool records and its /fleet/v1 bodies. Each caller
// keeps its own error prefix; what "strict" means is decided here, once.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
)

// Decode reads exactly one JSON value from r into v. A field v does not
// declare is an error, and so is anything but white space after the value:
// a typo'd knob must never silently default, and a second object is a
// malformed input, not something to ignore.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
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
