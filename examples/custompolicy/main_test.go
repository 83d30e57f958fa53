package main

import (
	"os"
	"path/filepath"
	"testing"

	"napawine/internal/golden"
)

// TestOutputIsPinned runs the example as `go run` does and pins what it
// prints in testdata/stdout.txt. Its variants build napawine.Bias values,
// so this holds the facade's weight to the profiles' own.
func TestOutputIsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates four swarms; skipped under -short")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/stdout.txt", got)
}
