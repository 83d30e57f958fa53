//go:build benchpair

package napawine_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The paired-run driver: the benchmark's acceptance rule, executed. It
// compares a git ref (the parent) with the working tree (the change) on the
// end-to-end metrics BENCHMARK.json declares. Opt-in and outside Tier-1:
//
//	go test -tags benchpair -run TestBenchPair -timeout 0 -v . \
//	    -ref HEAD~1 -workloads swarm-10k,single-pplive -pairs 10 -seed 700
//
// It extracts the ref with git archive into a temporary directory and builds
// each tree's benchmark once, through the tree's own bench/run.sh (one
// discarded run at seed 0, which also warms the caches). Then it runs the
// pairs one child at a time: pair i runs seed+i on both sides, the parent
// first in even pairs and the change first in odd ones. It prints each side's
// median and quartiles, the pairs the change was ahead in, every run and a
// verdict per metric, and writes the whole set to BENCH_<commit>.json at the
// repository root, named by the ref's short commit. A set never replaces one
// recorded before it: a later set against the same commit is written beside
// it as BENCH_<commit>-2.json, -3 and so on, with "repeat": true when its
// seeds overlap an earlier set's (it reran pairs already on record).
//
// The verdict is the benchmark's rule. A gain is "met" when the change is
// ahead in at least nine tenths of the pairs (ties count for neither side)
// and the medians are further apart than the parent's quartiles. Otherwise,
// against the metric's bound in BENCHMARK.json (a share of the parent's
// median): "regressed" when the change's median is worse than the parent's
// by more than the bound, "no regression" when it is not, and "unresolved"
// when the parent's quartile spread, as a share of its median, is wider than
// the bound, unless every change run reads better than every parent run.
//
// A run that exits non-zero, prints no result line or reports a failed
// operation counts as a failed run of its side, and its pair is left out of
// the metrics; the other pairs still run.
var (
	pairRef       = flag.String("ref", "HEAD", "the git ref to compare the working tree with")
	pairWorkloads = flag.String("workloads", "swarm-10k", "comma-separated workloads of BENCHMARK.json")
	pairCount     = flag.Int("pairs", 10, "interleaved pairs per workload")
	pairSeed      = flag.Int64("seed", 1, "seed of the first pair; pair i runs seed+i")
	pairSeconds   = flag.Float64("seconds", 4, "host seconds each run repeats its workload for (bench/run.sh --seconds)")
)

// pairMetric is one end-to-end metric of one workload over every pair.
type pairMetric struct {
	Name    string    `json:"name"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Parent  []float64 `json:"parent"`
	Change  []float64 `json:"change"`
	Summary struct {
		Parent  [3]float64 `json:"parent_q1_median_q3"`
		Change  [3]float64 `json:"change_q1_median_q3"`
		Ahead   int        `json:"ahead"`
		Behind  int        `json:"behind"`
		Verdict string     `json:"verdict"`
	} `json:"summary"`
}

type pairWorkload struct {
	Name   string `json:"name"`
	Failed struct {
		Parent int `json:"parent"`
		Change int `json:"change"`
	} `json:"failed_runs"`
	Metrics []*pairMetric `json:"metrics"`
}

type pairSet struct {
	Ref       string          `json:"ref"`
	RefCommit string          `json:"ref_commit"`
	Change    string          `json:"change"`
	GoVersion string          `json:"go_version"`
	NumCPU    int             `json:"nproc"`
	Seconds   float64         `json:"seconds"`
	Seeds     [2]int64        `json:"seeds"`
	Repeat    bool            `json:"repeat,omitempty"`
	Order     string          `json:"order"`
	Workloads []*pairWorkload `json:"workloads"`
}

func TestBenchPair(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	git := func(args ...string) string {
		out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
		if err != nil {
			t.Fatalf("git %v: %v", args, err)
		}
		return strings.TrimSpace(string(out))
	}
	set := &pairSet{
		Ref: *pairRef, RefCommit: git("rev-parse", "--short", *pairRef),
		Change:    "working tree at " + git("rev-parse", "--short", "HEAD"),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: *pairSeconds,
		Seeds: [2]int64{*pairSeed, *pairSeed + int64(*pairCount) - 1},
		Order: "pair i runs seed+i: parent first when i is even, change first when odd",
	}
	if git("status", "--porcelain") != "" {
		set.Change += " with uncommitted changes"
	}

	var bench struct {
		EndToEnd []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	parent := filepath.Join(t.TempDir(), "parent")
	if err := os.Mkdir(parent, 0o755); err != nil {
		t.Fatal(err)
	}
	extract := exec.Command("sh", "-c", `git -C "$1" archive "$2" | tar -x -C "$3"`, "sh", root, *pairRef, parent)
	if out, err := extract.CombinedOutput(); err != nil {
		t.Fatalf("extracting %s: %v\n%s", *pairRef, err, out)
	}
	workloads := strings.Split(*pairWorkloads, ",")
	for _, tree := range []string{parent, root} {
		build := exec.Command("bash", "bench/run.sh", "--workload", workloads[0], "--seed", "0", "--seconds", "0", "--trace", "0")
		build.Dir = tree
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building the benchmark of %s: %v\n%s", tree, err, out)
		}
	}

	for _, w := range workloads {
		wl := &pairWorkload{Name: w}
		for _, m := range bench.EndToEnd {
			wl.Metrics = append(wl.Metrics, &pairMetric{Name: m.Name, Better: m.Better, Bound: m.Bound})
		}
		for i := range *pairCount {
			seed := *pairSeed + int64(i)
			sides := []string{parent, root}
			if i%2 == 1 {
				sides = []string{root, parent}
			}
			runs := map[string]map[string]float64{}
			for _, tree := range sides {
				metrics, err := benchRun(tree, w, seed)
				if err != nil {
					t.Errorf("%s seed %d in %s: %v", w, seed, tree, err)
					if tree == parent {
						wl.Failed.Parent++
					} else {
						wl.Failed.Change++
					}
				}
				runs[tree] = metrics
			}
			if runs[parent] == nil || runs[root] == nil {
				continue
			}
			for _, m := range wl.Metrics {
				m.Parent = append(m.Parent, runs[parent][m.Name])
				m.Change = append(m.Change, runs[root][m.Name])
			}
		}
		for _, m := range wl.Metrics {
			summarize(m)
			s := m.Summary
			t.Logf("%s %s: parent %.4g (%.4g–%.4g), change %.4g (%.4g–%.4g), change ahead in %d of %d (behind in %d): %s",
				w, m.Name, s.Parent[1], s.Parent[0], s.Parent[2], s.Change[1], s.Change[0], s.Change[2], s.Ahead, len(m.Parent), s.Behind, s.Verdict)
			t.Logf("    parent %v", m.Parent)
			t.Logf("    change %v", m.Change)
			if s.Verdict == "regressed" {
				t.Errorf("%s %s regressed by more than its bound of %g", w, m.Name, m.Bound)
			}
		}
		set.Workloads = append(set.Workloads, wl)
	}

	path := filepath.Join(root, "BENCH_"+set.RefCommit+".json")
	for n := 2; ; n++ {
		raw, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		var earlier pairSet
		if err == nil {
			err = json.Unmarshal(raw, &earlier)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if earlier.Seeds[0] <= set.Seeds[1] && set.Seeds[0] <= earlier.Seeds[1] {
			set.Repeat = true
		}
		path = filepath.Join(root, fmt.Sprintf("BENCH_%s-%d.json", set.RefCommit, n))
	}
	out, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// benchRun runs one workload once in tree, with the binary its run.sh built,
// and returns the end-to-end metrics of the JSON line it prints last. The
// error is set, with the metrics nil, when the run failed: it exited
// non-zero, printed no result line, or reported a failed operation or a
// wrong digest.
func benchRun(tree, workload string, seed int64) (map[string]float64, error) {
	cmd := exec.Command(filepath.Join(tree, ".bench_build", "napabench"), "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(*pairSeconds), "--trace", "0")
	cmd.Dir = tree
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%v in %q", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("correct %v, %d failed operations", res.Correct, res.Failed)
	}
	metrics := map[string]float64{}
	for name, m := range res.Metrics {
		metrics[name] = m.Value
	}
	return metrics, nil
}

// summarize fills m's quartiles, its ahead and behind counts and its verdict.
func summarize(m *pairMetric) {
	s := &m.Summary
	if len(m.Parent) == 0 {
		s.Verdict = "no pairs"
		return
	}
	s.Parent, s.Change = quartiles(m.Parent), quartiles(m.Change)
	// worse is how much worse than x a reading y is, as a share of x.
	worse := func(y, x float64) float64 {
		if m.Better == "higher" {
			return (x - y) / x
		}
		return (y - x) / x
	}
	for i := range m.Parent {
		switch d := worse(m.Change[i], m.Parent[i]); {
		case d < 0:
			s.Ahead++
		case d > 0:
			s.Behind++
		}
	}
	separated := true // every change run better than every parent run
	for _, c := range m.Change {
		for _, p := range m.Parent {
			separated = separated && worse(c, p) < 0
		}
	}
	need := int(math.Ceil(0.9 * float64(len(m.Parent))))
	spread := s.Parent[2] - s.Parent[0]
	switch {
	case s.Ahead >= need && math.Abs(s.Change[1]-s.Parent[1]) > spread:
		s.Verdict = "met"
	case spread > m.Bound*s.Parent[1] && !separated:
		s.Verdict = "unresolved"
	case worse(s.Change[1], s.Parent[1]) > m.Bound:
		s.Verdict = "regressed"
	default:
		s.Verdict = "no regression"
	}
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between the closest ranks.
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
