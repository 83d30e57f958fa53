// Package golden pins a test's output to exact bytes under testdata/. With
// -update the tests rewrite those files instead, so a re-pin is reviewed as
// their git diff. Only test files import it.
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ with the output the tests produce")

// Check compares got with the file at path, byte for byte.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if *update {
		os.MkdirAll(filepath.Dir(path), 0o755) // WriteFile reports a failure
		want, err = got, os.WriteFile(path, got, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (go test -update rewrites it) at %s", path, firstDiff(want, got))
	}
}

// CheckDir compares every file in gotDir with its namesake in dir. The names
// in dir are the expected listing; -update rewrites it with the files.
func CheckDir(t testing.TB, dir, gotDir string) {
	t.Helper()
	got, want := names(gotDir), names(dir)
	if *update {
		os.RemoveAll(dir) // a file it leaves fails the listing of the next run
	} else if !slices.Equal(got, want) {
		t.Fatalf("%s holds %q, want %q", gotDir, got, want)
	}
	for _, name := range got {
		b, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatal(err)
		}
		Check(t, filepath.Join(dir, name), b)
	}
}

func names(dir string) (names []string) {
	entries, _ := os.ReadDir(dir) // a missing dir lists nothing
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// firstDiff names the first line on which got leaves want and the table it
// falls in, titled two lines above the last "----" rule before it. It shows
// that line on both sides, cut to 60 bytes either side of the first
// difference when it is longer than 160.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	n, where := 0, ""
	for ; n < len(w)-1 && n < len(g)-1 && w[n] == g[n]; n++ {
		if n >= 2 && strings.HasPrefix(w[n], "----") {
			where = fmt.Sprintf(" of table %q", w[n-2])
		}
	}
	col := 0
	for col < len(w[n]) && col < len(g[n]) && w[n][col] == g[n][col] {
		col++
	}
	clip := func(s string) string {
		if len(s) > 160 {
			s = s[max(0, col-60):min(len(s), col+60)]
		}
		return s
	}
	return fmt.Sprintf("line %d%s:\n got %q\nwant %q", n+1, where, clip(g[n]), clip(w[n]))
}
