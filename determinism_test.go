package napawine_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// importPath reports the path of the package x names in f through f's
// imports, or "" when x is not an identifier naming one.
func importPath(f *ast.File, x ast.Expr) string {
	pkg, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == pkg.Name {
			return path
		}
	}
	return ""
}

// nondeterministicCall names a call in f that reads the wall clock or the
// shared math/rand source, or returns "" for any other call. Seeded
// generators (rand.New, rand.NewSource) are what the simulation draws from.
func nondeterministicCall(f *ast.File, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	path, fn := importPath(f, sel.X), sel.Sel.Name
	switch {
	case path == "time" && slices.Contains([]string{"Now", "Since", "Until"}, fn),
		path == "math/rand" && fn != "New" && fn != "NewSource":
		return path + "." + fn
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

// inFunctions calls visit for every node of f with the name of the function
// declaring it, as (*T).M, T.M or F ("" outside any function).
func inFunctions(f *ast.File, visit func(fn string, n ast.Node)) {
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
			visit(fn, n)
			return true
		})
	}
}

// goStatements lists the go statements in f.
func goStatements(fset *token.FileSet, f *ast.File) []goStatement {
	var found []goStatement
	inFunctions(f, func(fn string, n ast.Node) {
		if g, ok := n.(*ast.GoStmt); ok {
			found = append(found, goStatement{fset.Position(g.Pos()).String(), fn})
		}
	})
	return found
}

// osFileOps are the os names a simulation package may use: each creates or
// reads a file at a path its caller names, an output or input of the run
// like any other. The rest of os (the environment, the arguments, the
// process, the host, the working directory) is state a run must not read.
var osFileOps = []string{"Create", "File", "ReadFile"}

// processReads lists file:line: name for every use in f, the file at path,
// of a runtime package (runtime, runtime/debug, ...) or of os beyond
// osFileOps. One runtime read is not listed: runtime.GOMAXPROCS inside a
// function goroutinesAllowed names, where it can only size the goroutines
// that entry accounts for.
func processReads(fset *token.FileSet, path string, f *ast.File) []string {
	var found []string
	inFunctions(f, func(fn string, n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		pkg, name := importPath(f, sel.X), sel.Sel.Name
		_, sizesGoroutines := goroutinesAllowed[path+":"+fn]
		switch {
		case pkg == "os" && !slices.Contains(osFileOps, name),
			pkg == "runtime" && !(name == "GOMAXPROCS" && sizesGoroutines),
			strings.HasPrefix(pkg, "runtime/"):
			found = append(found, fmt.Sprintf("%s: %s.%s", fset.Position(sel.Pos()), pkg, name))
		}
	})
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

// moduleImporter type-checks this module's packages from source, recording
// into info, and stands an empty package in for every other import. The
// map-range guard needs only the types the module declares; what the
// checker cannot resolve through an empty package it reports to
// types.Config.Error, which drops it. A map that only a standard-library
// call returns is therefore not seen as one.
type moduleImporter struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string]*ast.File // every file checked, keyed by slash path
}

func newModuleImporter(fset *token.FileSet) *moduleImporter {
	return &moduleImporter{fset: fset, pkgs: map[string]*types.Package{}, files: map[string]*ast.File{},
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}}
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := strings.CutPrefix(path, "napawine/")
	if !ok {
		p := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
		p.MarkComplete()
		im.pkgs[path] = p
		return p, nil
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		im.files[filepath.ToSlash(name)] = f
		files = append(files, f)
	}
	conf := types.Config{Importer: im, Error: func(error) {}}
	p, _ := conf.Check(path, im.fset, files, im.info)
	im.pkgs[path] = p
	return p, nil
}

// engineEffects are the sim.Engine and sim.Sharded methods that post an
// event or draw from the engine's generator.
var engineEffects = []string{"Schedule", "At", "Post", "PostAt", "After", "Every", "Send", "Rand"}

// mapRangeEffect names what call does that a range over a map must not do
// once per key, in the map's order: "appends", "writes" (fmt.Fprint*, a
// Write* method) or "posts" (engineEffects), or "" for anything else.
func mapRangeEffect(f *ast.File, info *types.Info, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
			return "appends"
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		m, _ := info.Uses[fun.Sel].(*types.Func)
		switch {
		case importPath(f, fun.X) == "fmt" && strings.HasPrefix(name, "Fprint"), strings.HasPrefix(name, "Write"):
			return "writes"
		case m != nil && m.Pkg() != nil && m.Pkg().Path() == "napawine/internal/sim" && slices.Contains(engineEffects, name):
			return "posts"
		}
	}
	return ""
}

// sortedAfter reports whether the slice that append call grows is sorted
// by a sort or slices.Sort* call in body after pos: keys collected to be
// sorted take the sort's order, not the map's.
func sortedAfter(f *ast.File, info *types.Info, body *ast.BlockStmt, pos token.Pos, call *ast.CallExpr) bool {
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() < pos || len(c.Args) == 0 {
			return true
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		arg, ok2 := c.Args[0].(*ast.Ident)
		if ok && ok2 && info.Uses[arg] == info.Uses[dst] {
			path := importPath(f, sel.X)
			sorted = sorted || path == "sort" || path == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")
		}
		return true
	})
	return sorted
}

// mapRangeEffects lists file:line: what for every call in f that appends,
// writes or posts inside the body of a range over a map, an append whose
// slice is sorted later in the same function aside.
func mapRangeEffects(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	var found []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			r, ok := n.(*ast.RangeStmt)
			if !ok || info.TypeOf(r.X) == nil {
				return true
			}
			if _, ok := info.TypeOf(r.X).Underlying().(*types.Map); !ok {
				return true
			}
			ast.Inspect(r.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				what := mapRangeEffect(f, info, call)
				if what != "" && !(what == "appends" && sortedAfter(f, info, fn.Body, r.End(), call)) {
					found = append(found, fmt.Sprintf("%s: range over a map %s", fset.Position(call.Pos()), what))
				}
				return true
			})
			return true
		})
	}
	return found
}

// checkSimulationPackages type-checks the simulation packages and the
// module packages they import.
func checkSimulationPackages(t *testing.T, fset *token.FileSet) *moduleImporter {
	t.Helper()
	im := newModuleImporter(fset)
	for _, pkg := range simulationPackages {
		if p, err := im.Import("napawine/internal/" + pkg); err != nil || p == nil {
			t.Fatalf("internal/%s: %v", pkg, err)
		}
	}
	return im
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

// TestSimulationCodeReadsNoProcessState: no non-test file of a simulation
// package reads the process or its host through runtime or os (memory
// statistics, goroutine or CPU counts, the environment, the arguments, the
// host name): a run's output, and what it counts of its own work, must not
// depend on them.
func TestSimulationCodeReadsNoProcessState(t *testing.T) {
	fset := token.NewFileSet()
	files := parseSimulationFiles(t, fset)
	for _, name := range slices.Sorted(maps.Keys(files)) {
		for _, found := range processReads(fset, name, files[name]) {
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

// TestSimulationCodeRangesMapsInert: no range over a map in a simulation
// package appends, writes or posts once per key, so Go's randomized map
// order cannot reach a slice, an output or the event queue; collecting the
// keys to sort them is the one way to walk a map in an order.
func TestSimulationCodeRangesMapsInert(t *testing.T) {
	fset := token.NewFileSet()
	im := checkSimulationPackages(t, fset)
	for _, name := range slices.Sorted(maps.Keys(im.files)) {
		if slices.Contains(simulationPackages, strings.Split(name, "/")[1]) {
			for _, found := range mapRangeEffects(fset, im.files[name], im.info) {
				t.Error(found)
			}
		}
	}
}

// TestMapRangeGuardFindsEffects: appends, writes and posts inside a map
// range are found, naming file:line; collecting keys that are sorted later,
// writing into another map and ranging over a slice are not.
func TestMapRangeGuardFindsEffects(t *testing.T) {
	const src = `package overlay

import (
	"fmt"
	"io"
	"slices"

	"napawine/internal/sim"
)

func f(w io.Writer, eng *sim.Engine, m map[int]int, s []int) {
	var keys, vals []int
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, v := range m {
		vals = append(vals, v)
		fmt.Fprintln(w, v)
		eng.Post(0, sim.Record{})
		_ = eng.Rand().Intn(2)
	}
	other := map[int]int{}
	for k, v := range m {
		other[k] = v
	}
	for _, v := range s {
		vals = append(vals, v)
	}
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/overlay/scratch.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	im := newModuleImporter(fset)
	conf := types.Config{Importer: im, Error: func(error) {}}
	conf.Check("napawine/internal/overlay", fset, []*ast.File{f}, im.info)
	want := []string{
		"internal/overlay/scratch.go:18:10: range over a map appends",
		"internal/overlay/scratch.go:19:3: range over a map writes",
		"internal/overlay/scratch.go:20:3: range over a map posts",
		"internal/overlay/scratch.go:21:7: range over a map posts",
	}
	if found := mapRangeEffects(fset, f, im.info); !slices.Equal(found, want) {
		t.Errorf("found %q, want %q", found, want)
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

// TestDeterminismGuardFindsProcessReads: calls and plain reads of runtime,
// runtime/debug and os are found through renamed imports; os's file
// operations, GOMAXPROCS where goroutinesAllowed names the function, and a
// local value named like a package are not.
func TestDeterminismGuardFindsProcessReads(t *testing.T) {
	const src = `package study

import (
	"os"
	rt "runtime"
	"runtime/debug"
)

func Run(runtime struct{ NumCPU func() int }) {
	_ = rt.GOMAXPROCS(0)
	_ = runtime.NumCPU()
	f, _ := os.Create("trace")
	var _ *os.File = f
	_, _ = os.ReadFile("spec.json")
}

func g() {
	var ms rt.MemStats
	rt.ReadMemStats(&ms)
	_ = rt.GOMAXPROCS(0)
	_ = os.Getenv("SEED")
	_ = os.Args
	debug.SetGCPercent(50)
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/study/run.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	found := processReads(fset, "internal/study/run.go", f)
	want := []string{
		"internal/study/run.go:18:9: runtime.MemStats",
		"internal/study/run.go:19:2: runtime.ReadMemStats",
		"internal/study/run.go:20:6: runtime.GOMAXPROCS",
		"internal/study/run.go:21:6: os.Getenv",
		"internal/study/run.go:22:6: os.Args",
		"internal/study/run.go:23:2: runtime/debug.SetGCPercent",
	}
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
