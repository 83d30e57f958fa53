//go:build mutation

package napawine_test

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The mutation pass. A mutant is one small edit to a sampled package, built
// and tested in a copy of the tree: a comparison negated or moved
// across its boundary, a numeric constant set to 0 or 1, an assignment or a
// call statement deleted, or a return put first in a function without
// results. The tree pins its output with digests, so a mutant that every
// test survives marks code whose effect reaches no pinned output and no
// assertion: dead for the contract, or behaviour no test holds. Opt-in and
// outside Tier-1, one mutant at a time, with go test -p 2:
//
//	go test -tags mutation -run 'TestMutationPass$' -timeout 0 -v .
//
// TestMutationSmoke runs five fixed mutants, one per outcome a pass must
// tell apart, one in study and one in fleet; it takes about 100 s.

// mutationPackages are the packages the pass samples, by path from the
// repository root: the fleet, the two commands, and the leaf packages every
// output passes through (plots, tables, the capture record, the strict JSON
// reader, statistics and units). Seed 27 sampled the simulation packages up
// to core, seed 55 the layers above core.
var mutationPackages = []string{
	"internal/fleet", "cmd/napawine", "cmd/worldgen", "internal/plot",
	"internal/report", "internal/packet", "internal/strictjson", "internal/stats", "internal/units",
}

const (
	mutationSample = 300
	mutationSeed   = 56
	// mutantDeadline bounds one mutant's build and tests together; unmutated,
	// they take about 12 s on 2 cores. Past it the mutant reads "timed out".
	mutantDeadline = 60 * time.Second
)

// The four ends of a mutant.
const (
	killed     = "killed"
	survived   = "survived"
	noCompile  = "did not compile"
	timedOut   = "timed out"
	outcomeLen = len(noCompile)
)

// mutant is one edit: the bytes [start, end) of file replace with repl.
type mutant struct {
	pkg, file  string // file is relative to the repository root
	line       int
	op, text   string // what the edit does; the source it edits
	start, end int
	repl       string
}

func (m mutant) String() string { return fmt.Sprintf("%s:%d %s `%s`", m.file, m.line, m.op, m.text) }

var (
	negated  = map[token.Token]token.Token{token.LSS: token.GEQ, token.LEQ: token.GTR, token.GTR: token.LEQ, token.GEQ: token.LSS, token.EQL: token.NEQ, token.NEQ: token.EQL}
	boundary = map[token.Token]token.Token{token.LSS: token.LEQ, token.LEQ: token.LSS, token.GTR: token.GEQ, token.GEQ: token.GTR}
)

// mutantsOf lists every mutant of one file, in source order.
func mutantsOf(t *testing.T, pkg, file string) []mutant {
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []mutant
	// add records the edit of [pos, end) to repl, describing it by the
	// source of node n on one line.
	add := func(n ast.Node, pos, end token.Pos, op, repl string) {
		p := fset.Position(pos)
		text := strings.Join(strings.Fields(string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])), " ")
		out = append(out, mutant{pkg: pkg, file: file, line: p.Line, op: op, text: text[:min(len(text), 72)],
			start: p.Offset, end: fset.Position(end).Offset, repl: repl})
	}
	deletions := func(list []ast.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *ast.AssignStmt:
				if s.Tok != token.DEFINE {
					add(s, s.Pos(), s.End(), "delete", "")
				}
			case *ast.IncDecStmt:
				add(s, s.Pos(), s.End(), "delete", "")
			case *ast.ExprStmt:
				if _, ok := s.X.(*ast.CallExpr); ok {
					add(s, s.Pos(), s.End(), "delete", "")
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			end := n.OpPos + token.Pos(len(n.Op.String()))
			if to, ok := negated[n.Op]; ok {
				add(n, n.OpPos, end, n.Op.String()+" to "+to.String(), to.String())
			}
			if to, ok := boundary[n.Op]; ok {
				add(n, n.OpPos, end, n.Op.String()+" to "+to.String(), to.String())
			}
		case *ast.BasicLit:
			if n.Kind == token.INT || n.Kind == token.FLOAT {
				to := "0"
				if n.Value == "0" {
					to = "1"
				}
				add(n, n.Pos(), n.End(), "to "+to, to)
			}
		case *ast.BlockStmt:
			deletions(n.List)
		case *ast.CaseClause:
			deletions(n.Body)
		case *ast.FuncDecl:
			if n.Body != nil && n.Type.Results == nil && len(n.Body.List) > 0 {
				add(n.Name, n.Body.Lbrace+1, n.Body.Lbrace+1, "return first", "return;")
			}
		}
		return true
	})
	return out
}

// allMutants lists the mutants of every non-test file of the sampled
// packages, in package, file and source order.
func allMutants(t *testing.T) []mutant {
	var out []mutant
	for _, pkg := range mutationPackages {
		files, err := filepath.Glob(filepath.Join(pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if !strings.HasSuffix(file, "_test.go") {
				out = append(out, mutantsOf(t, pkg, file)...)
			}
		}
	}
	return out
}

// copyTree copies the module into a fresh directory: bench/, a module of
// its own, and hidden directories stay behind.
func copyTree(t *testing.T) string {
	dir := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "bench" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dir, path), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, path), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// runMutant builds and tests one mutant in dir, the tree copyTree made, and
// puts its file back afterwards. The mutant's own package is tested with the
// layers that pin output: experiment, study, fleet (the only tests of a cell
// run remotely and of the summary codecs), the root and the CLI.
func runMutant(t *testing.T, dir string, m mutant) string {
	path := filepath.Join(dir, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err) // every later mutant would run on this one
		}
	}()
	edited := slices.Concat(orig[:m.start], []byte(m.repl), orig[m.end:])
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), mutantDeadline)
	defer cancel()
	pkgs := []string{"./internal/experiment", "./internal/study", "./internal/fleet", ".", "./cmd/napawine"}
	if !slices.Contains(pkgs, "./"+m.pkg) {
		pkgs = append(pkgs, "./"+m.pkg)
	}
	// -failfast: a test binary stops at its first failure, so a mutant that
	// fails one test and hangs a later one reads killed, not timed out.
	cmd := exec.CommandContext(ctx, "go", slices.Concat([]string{"test", "-p", "2", "-count=1", "-vet=off", "-failfast"}, pkgs)...)
	cmd.Dir = dir
	// A hung mutant's test binaries are the go command's children: the
	// deadline kills the whole process group, not the go command alone.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.CombinedOutput()
	switch {
	case ctx.Err() != nil:
		return timedOut
	case err == nil:
		return survived
	case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
		return noCompile
	}
	return killed
}

// runAll runs the mutants one at a time and logs each outcome, then the
// counts per package.
func runAll(t *testing.T, ms []mutant) map[string]string {
	dir := copyTree(t)
	got := make(map[string]string)
	counts := make(map[string]map[string]int)
	for i, m := range ms {
		start := time.Now()
		o := runMutant(t, dir, m)
		got[m.String()] = o
		if counts[m.pkg] == nil {
			counts[m.pkg] = make(map[string]int)
		}
		counts[m.pkg][o]++
		t.Logf("%3d/%d %-*s %5.1fs %v", i+1, len(ms), outcomeLen, o, time.Since(start).Seconds(), m)
	}
	for _, pkg := range slices.Sorted(maps.Keys(counts)) {
		c := counts[pkg]
		t.Logf("%-19s %s %d, %s %d, %s %d, %s %d", pkg, killed, c[killed], survived, c[survived], noCompile, c[noCompile], timedOut, c[timedOut])
	}
	return got
}

// TestMutationPass runs a fixed sample of mutationSample mutants, drawn with
// mutationSeed from every mutant of the sampled packages.
func TestMutationPass(t *testing.T) {
	ms := allMutants(t)
	n := len(ms)
	rand.New(rand.NewSource(mutationSeed)).Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	ms = ms[:min(mutationSample, len(ms))]
	slices.SortFunc(ms, func(a, b mutant) int {
		return strings.Compare(fmt.Sprintf("%s %08d", a.file, a.start), fmt.Sprintf("%s %08d", b.file, b.start))
	})
	t.Logf("%d mutants in all; %d sampled", n, len(ms))
	runAll(t, ms)
}

// TestMutationSmoke runs five fixed mutants and requires each to end as it
// must: a deleted ledger count is killed, a cap clamp that may also take the
// value it clamps to survives, a binary search that never narrows times out,
// a summary encoder that refuses every summary is killed, and so is a worker
// that returns a summary with no JSON instead of failing its cell.
func TestMutationSmoke(t *testing.T) {
	cases := []struct{ file, text, op, want string }{
		{"internal/overlay/transfer.go", "sc.ledger.ChunksServedTotal++", "delete", killed},
		{"internal/policy/policy.go", "r > b.Cap", "> to >=", survived},
		{"internal/overlay/partners.go", "hi = mid", "delete", timedOut},
		{"internal/study/resultcodec.go", "s == nil", "== to !=", killed},
		{"internal/fleet/worker.go", "runErr = err", "delete", killed},
	}
	var ms []mutant
	for _, c := range cases {
		all := mutantsOf(t, filepath.Dir(c.file), c.file)
		i := slices.IndexFunc(all, func(m mutant) bool { return m.op == c.op && m.text == c.text })
		if i < 0 {
			t.Fatalf("no %q mutant of `%s` in %s", c.op, c.text, c.file)
		}
		ms = append(ms, all[i])
	}
	got := runAll(t, ms)
	for i, c := range cases {
		if o := got[ms[i].String()]; o != c.want {
			t.Errorf("%v: %s, want %s", ms[i], o, c.want)
		}
	}
}
