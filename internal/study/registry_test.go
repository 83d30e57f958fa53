package study

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestRegistryFilesAreCanonical: specs/ holds exactly one file per
// registered name, each named for its file and byte-for-byte what Encode
// writes for it, so the files stay canonical and diffable.
func TestRegistryFilesAreCanonical(t *testing.T) {
	entries, err := os.ReadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk []string
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".json")
		onDisk = append(onDisk, name)
		if !ok || !slices.Contains(Names(), name) {
			t.Errorf("specs/%s is not a registered study's file", e.Name())
		}
	}
	for _, name := range Names() {
		if !slices.Contains(onDisk, name) {
			t.Errorf("registered study %q has no specs/%s.json", name, name)
			continue
		}
		b, err := specs.ReadFile("specs/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		st, err := DecodeBytes(b)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if st.Name != name {
			t.Errorf("specs/%s.json is named %q", name, st.Name)
		}
		var canon bytes.Buffer
		if err := Encode(&canon, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, canon.Bytes()) {
			t.Errorf("specs/%s.json is not canonical; Encode writes:\n%s", name, canon.Bytes())
		}
	}
}
