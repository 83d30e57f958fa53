package napawine_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// simulationPackages are the packages whose code runs inside a simulated
// run or decides what one computes: a run's output must be a function of
// its seed and configuration alone.
var simulationPackages = []string{
	"sim", "overlay", "policy", "access", "chunkstream", "sniffer", "analysis",
	"core", "experiment", "world", "topology", "scenario", "apps", "study",
}

// nondeterministicCall names a call in f that reads the wall clock or the
// shared math/rand source, or returns "" for any other call. Seeded
// generators (rand.New, rand.NewSource) are what the simulation draws from.
func nondeterministicCall(f *ast.File, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name != pkg.Name {
			continue
		}
		fn := sel.Sel.Name
		switch {
		case path == "time" && slices.Contains([]string{"Now", "Since", "Until"}, fn),
			path == "math/rand" && fn != "New" && fn != "NewSource":
			return path + "." + fn
		}
	}
	return ""
}

// nondeterministicCalls lists file:line: call for every such call in src.
func nondeterministicCalls(fset *token.FileSet, name string, src any) ([]string, error) {
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if what := nondeterministicCall(f, call); what != "" {
				found = append(found, fmt.Sprintf("%s: %s", fset.Position(call.Pos()), what))
			}
		}
		return true
	})
	return found, nil
}

// TestSimulationCodeIsDeterministic: no non-test file of a simulation
// package reads the wall clock (time.Now, time.Since, time.Until) or draws
// from math/rand's shared source; every draw goes through a generator
// seeded from the run's configuration.
func TestSimulationCodeIsDeterministic(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range simulationPackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			found, err := nondeterministicCalls(fset, file, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range found {
				t.Error(f)
			}
		}
	}
}

// TestDeterminismGuardSeesThroughImportNames: the guard resolves a call's
// package through the file's imports, so a renamed import is caught, a
// seeded generator and a local value named like a package are not.
func TestDeterminismGuardSeesThroughImportNames(t *testing.T) {
	const src = `package p

import (
	"math/rand"
	clock "time"
)

func f(time struct{ Now func() int }) {
	_ = clock.Now()
	_ = clock.Since(clock.Time{})
	_ = rand.Intn(3)
	_ = rand.New(rand.NewSource(1)).Intn(3)
	_ = time.Now()
}
`
	found, err := nondeterministicCalls(token.NewFileSet(), "p.go", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p.go:9:6: time.Now", "p.go:10:6: time.Since", "p.go:11:6: math/rand.Intn"}
	if !slices.Equal(found, want) {
		t.Errorf("found %q, want %q", found, want)
	}
}
