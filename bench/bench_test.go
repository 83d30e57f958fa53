package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary: the harness
// re-executes os.Executable() with -child for every repetition.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeFullRun runs every workload, the traced round and every kernel
// at smoke scale and holds the report against BENCHMARK.json.
func TestSmokeFullRun(t *testing.T) {
	c := loadContract(t)
	o := options{seed: 1, smoke: true, outDir: t.TempDir()}
	var out bytes.Buffer
	rep, err := fullRun(o, &out)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "unvalidated against the paper") {
		t.Error("report does not say the model is unvalidated against the paper")
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		stats := rep.EndToEnd[w.Name]
		for _, e := range c.EndToEnd {
			s, ok := stats[e.Name]
			if !ok || s.Unit != e.Unit || s.N < 1 || !(s.Median > 0) {
				t.Errorf("%s: end-to-end %s: got %+v, want unit %q and a positive median", w.Name, e.Name, s, e.Unit)
			}
		}
		if len(stats) != len(c.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, BENCHMARK.json lists %d", w.Name, len(stats), len(c.EndToEnd))
		}

		// Every per-layer metric once, from the run or from the kernels.
		seen := map[string]string{}
		var shares float64
		for _, m := range append(append([]metric(nil), rep.PerLayer[w.Name]...), rep.Kernels...) {
			if _, dup := seen[m.Name]; dup {
				t.Errorf("%s: metric %s emitted twice", w.Name, m.Name)
			}
			if !nameRE.MatchString(m.Name) || m.Unit == "" {
				t.Errorf("%s: metric %q unit %q", w.Name, m.Name, m.Unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %v", w.Name, m.Name, m.Value)
			}
			seen[m.Name] = m.Unit
			if strings.HasPrefix(m.Name, "cpu_share.") {
				shares += m.Value
			}
		}
		for _, p := range c.PerLayer {
			if unit, ok := seen[p.Name]; !ok || unit != p.Unit {
				t.Errorf("%s: per-layer %s: emitted unit %q (present %v), BENCHMARK.json says %q", w.Name, p.Name, unit, ok, p.Unit)
			}
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: cpu_share.* sums to %v", w.Name, shares)
		}

		// Span file: loads as JSON, parents resolve, every span closed.
		b, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct{ Spans []span }
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatalf("%s: span file: %v", w.Name, err)
		}
		ids, linked := map[int]bool{}, 0
		for _, sp := range tf.Spans {
			ids[sp.ID] = true
		}
		for _, sp := range tf.Spans {
			if sp.Parent != 0 {
				linked++
				if !ids[sp.Parent] {
					t.Errorf("%s: span %q has unknown parent %d", w.Name, sp.Name, sp.Parent)
				}
			}
			if sp.EndNs < sp.StartNs {
				t.Errorf("%s: span %q never ended", w.Name, sp.Name)
			}
		}
		if linked == 0 {
			t.Errorf("%s: no span has a parent", w.Name)
		}
	}
	// Digests repeated across the untraced and traced child of each
	// workload, or fullRun would have failed; the grids must also agree.
	if rep.Digests["study-grid"] == "" || rep.Digests["study-grid"] != rep.Digests["fleet-grid"] {
		t.Errorf("fleet-grid digest %q, study-grid digest %q", rep.Digests["fleet-grid"], rep.Digests["study-grid"])
	}
	for w, fs := range rep.FailShare {
		if fs.Failed != 0 || fs.Attempted < 1 {
			t.Errorf("%s: failed %d of %d operations", w, fs.Failed, fs.Attempted)
		}
	}
}

// TestSmokeDriverLine checks the one-line result the driver parses: exactly
// the contract's keys, and exactly BENCHMARK.json's metrics for each mode.
func TestSmokeDriverLine(t *testing.T) {
	c := loadContract(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, e := range c.EndToEnd {
		want[false][e.Name] = e.Unit
	}
	for _, p := range c.PerLayer {
		want[true][p.Name] = p.Unit
	}
	o := options{seed: 7, smoke: true, outDir: t.TempDir()}
	for _, w := range []string{"churn-flashcrowd", "fleet-grid"} {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := driverRun(o, w, 0.1, traced, &out); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 || string(res["correct"]) != "true" || string(res["failed"]) != "0" || res["attempted"] == nil {
				t.Errorf("%s traced=%v: result line %s", w, traced, lines[len(lines)-1])
			}
			var got map[string]struct {
				Value *float64
				Unit  string
			}
			if err := json.Unmarshal(res["metrics"], &got); err != nil {
				t.Fatal(err)
			}
			for name, unit := range want[traced] {
				if m, ok := got[name]; !ok || m.Unit != unit || m.Value == nil {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", w, traced, name, m.Unit, unit)
				}
			}
			for name := range got {
				if _, ok := want[traced][name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w, traced, name)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

// TestCompareSetsIsSymmetric holds the A/A verdict to "the two medians
// agree", not "the second set is no slower": a second set that is much
// faster means the first was much slower, and that is a disagreement too.
func TestCompareSetsIsSymmetric(t *testing.T) {
	set := func(wall float64) *report {
		r := &report{EndToEnd: map[string]map[string]stat{}}
		for _, w := range workloads {
			r.EndToEnd[w.name] = map[string]stat{}
			for _, e := range endToEnd {
				r.EndToEnd[w.name][e.name] = stat{Unit: e.unit, Median: 1, Q1: 1, Q3: 1, N: 5}
			}
		}
		r.EndToEnd["swarm-10k"]["wall_s"] = stat{Unit: "s", Median: wall, Q1: wall, Q3: wall, N: 5}
		return r
	}
	bound := map[string]float64{}
	for _, e := range endToEnd {
		bound[e.name] = 0.25
	}
	for _, c := range []struct {
		first, second float64
		bad           int
	}{
		{1, 1, 0},
		{1, 1.2, 0},
		{1.2, 1, 0},
		{1, 1.4, 1},
		{1, 0.6, 1}, // 40 % faster: set 1 is 67 % slower than set 2
		{1, 0, 1},
		{0, 1, 1},
		{0, 0, 1},
		{math.NaN(), 1, 1},
	} {
		if bad := compareSets(set(c.first), set(c.second), bound, io.Discard); bad != c.bad {
			t.Errorf("medians %v and %v: %d disagreements, want %d", c.first, c.second, bad, c.bad)
		}
	}
}

// TestWorkloadSeedsAreDistinct checks that no two -seed values share a
// workload seed and that neither grid seed (s, s+1) is 0, which the study
// codec would read as seed 1.
func TestWorkloadSeedsAreDistinct(t *testing.T) {
	seen := map[int64]int64{}
	for flag := int64(-20); flag <= 20; flag++ {
		s := workloadSeed(flag)
		if prev, dup := seen[s]; dup {
			t.Errorf("-seed %d and -seed %d both run workload seed %d", prev, flag, s)
		}
		seen[s] = flag
		if s == 0 || s+1 == 0 {
			t.Errorf("-seed %d gives grid seeds %d and %d", flag, s, s+1)
		}
		if flag >= 1 && s != flag {
			t.Errorf("-seed %d runs workload seed %d", flag, s)
		}
	}
}

// TestFoldProfileLayers pins the frame-to-layer map the cpu_share table
// rests on.
func TestFoldProfileLayers(t *testing.T) {
	for _, c := range []struct {
		names []string
		file  string
		want  string
	}{
		{[]string{"napawine/internal/overlay.(*Node).signalingTick"}, "/r/internal/overlay/node.go", "overlay"},
		{[]string{"napawine/internal/overlay.(*Ledger).AddVideo"}, "/r/internal/overlay/overlay.go", "ledger"},
		{[]string{"napawine/internal/overlay.(*Network).sendCross"}, "/r/internal/overlay/shard.go", "sharded"},
		{[]string{"napawine/internal/sim.(*Sharded).flush"}, "/r/internal/sim/sharded.go", "sharded"},
		{[]string{"napawine/internal/sim.(*Engine).Step"}, "/r/internal/sim/sim.go", "sim"},
		{[]string{"napawine/internal/analysis.(*Aggregator).Consume"}, "/r/internal/analysis/analysis.go", "capture"},
		{[]string{"napawine/internal/runner.ParallelCtx[...]"}, "/r/internal/runner/runner.go", "study"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey"}, "", "runtime_maps"},
		{[]string{"runtime.mapaccess1_fast64"}, "", "runtime_maps"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "napawine/internal/overlay.(*Node).x"}, "", "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "", "runtime_gc"},
		{[]string{"runtime.futex"}, "", "other"},
		{[]string{"encoding/json.(*decodeState).object"}, "", "wire"},
		{[]string{"net/http.(*conn).serve"}, "", "wire"},
		{[]string{"math/rand.(*Rand).Int63n"}, "", "other"},
	} {
		files := make([]string, len(c.names))
		files[0] = c.file
		if got := layerOf(c.names, files); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.names, got, c.want)
		}
	}
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("foldProfile accepted garbage")
	}
}
