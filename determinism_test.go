package napawine_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
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

// nondeterministicCalls lists file:line: call for every such call in f.
func nondeterministicCalls(fset *token.FileSet, f *ast.File) []string {
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if what := nondeterministicCall(f, call); what != "" {
				found = append(found, fmt.Sprintf("%s: %s", fset.Position(call.Pos()), what))
			}
		}
		return true
	})
	return found
}

// goroutinesAllowed names, as file:func, the places a simulation package
// may start a goroutine, each with the reason its output stays a function
// of the seed and configuration.
var goroutinesAllowed = map[string]string{
	"internal/sim/sharded.go:(*Sharded).Run": "the shard workers: each runs its own engine to the window end the coordinator hands it, and the barrier orders all they exchange",
	"internal/study/run.go:Run":              "the cell executor: each cell is a run of its own, and its result lands in the cell's slot by index",
}

// goStatement is one go statement: where it is, and the function declaring
// it as (*T).M, T.M or F ("" outside any function).
type goStatement struct{ pos, fn string }

// goStatements lists the go statements in f.
func goStatements(fset *token.FileSet, f *ast.File) []goStatement {
	var found []goStatement
	for _, decl := range f.Decls {
		fn := ""
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = d.Name.Name
			if d.Recv != nil {
				switch recv := d.Recv.List[0].Type.(type) {
				case *ast.StarExpr:
					fn = fmt.Sprintf("(*%s).%s", recv.X.(*ast.Ident).Name, fn)
				case *ast.Ident:
					fn = recv.Name + "." + fn
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				found = append(found, goStatement{fset.Position(g.Pos()).String(), fn})
			}
			return true
		})
	}
	return found
}

// parseSimulationFiles parses every non-test file of the simulation
// packages, keyed by its slash-separated path.
func parseSimulationFiles(t *testing.T, fset *token.FileSet) map[string]*ast.File {
	t.Helper()
	parsed := map[string]*ast.File{}
	for _, pkg := range simulationPackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed[filepath.ToSlash(file)] = f
		}
	}
	return parsed
}

// TestSimulationCodeIsDeterministic: no non-test file of a simulation
// package reads the wall clock (time.Now, time.Since, time.Until) or draws
// from math/rand's shared source; every draw goes through a generator
// seeded from the run's configuration.
func TestSimulationCodeIsDeterministic(t *testing.T) {
	fset := token.NewFileSet()
	files := parseSimulationFiles(t, fset)
	for _, name := range slices.Sorted(maps.Keys(files)) {
		for _, found := range nondeterministicCalls(fset, files[name]) {
			t.Error(found)
		}
	}
}

// TestSimulationCodeStartsNoGoroutines: a simulation package starts a
// goroutine only where goroutinesAllowed says why that is safe, and every
// entry there still names a go statement.
func TestSimulationCodeStartsNoGoroutines(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	files := parseSimulationFiles(t, fset)
	for _, name := range slices.Sorted(maps.Keys(files)) {
		for _, g := range goStatements(fset, files[name]) {
			key := name + ":" + g.fn
			if _, ok := goroutinesAllowed[key]; !ok {
				t.Errorf("%s: go statement in %s, which goroutinesAllowed does not name", g.pos, key)
			}
			used[key] = true
		}
	}
	for _, key := range slices.Sorted(maps.Keys(goroutinesAllowed)) {
		if !used[key] {
			t.Errorf("goroutinesAllowed names %s, which has no go statement", key)
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
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	found := nondeterministicCalls(fset, f)
	want := []string{"p.go:9:6: time.Now", "p.go:10:6: time.Since", "p.go:11:6: math/rand.Intn"}
	if !slices.Equal(found, want) {
		t.Errorf("found %q, want %q", found, want)
	}
}

// TestGoStatementGuardNamesFunctions: a go statement is named by the
// function that declares it, closures included, and one outside any
// function by none.
func TestGoStatementGuardNamesFunctions(t *testing.T) {
	const src = `package p

type T struct{}

var v = func() { go f() }

func (*T) M() { go f() }

func (T) N() { func() { go f() }() }

func f() { go f() }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	want := []goStatement{{"p.go:5:18", ""}, {"p.go:7:17", "(*T).M"}, {"p.go:9:25", "T.N"}, {"p.go:11:12", "f"}}
	if found := goStatements(fset, f); !slices.Equal(found, want) {
		t.Errorf("found %q, want %q", found, want)
	}
}
