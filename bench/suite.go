package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// expectedJSON pins the seed-1 full-scale digest of every workload. Only
// -repin rewrites it.
//
//go:embed expected.json
var expectedJSON []byte

type options struct {
	seed   int64
	smoke  bool
	outDir string // where trace-<workload>.json and report.json go
}

// rounds is how many interleaved rounds make a set of the full run; fixed,
// so that any two sets are comparable. A smoke set is one round.
const rounds = 5

// expectedPath is the file -repin rewrites, relative to the repository root
// the benchmark runs from.
const expectedPath = "bench/expected.json"

// kernelTime is how long each kernel runs: the full run's budget, and the
// shorter one a traced driver invocation can afford inside its time cap.
const (
	kernelTimeFull   = 300 * time.Millisecond
	kernelTimeDriver = 100 * time.Millisecond
)

// kernels runs the per-layer kernels for d each, or for one iteration each
// at smoke scale.
func (o options) kernels(d time.Duration) ([]metric, error) {
	if o.smoke {
		d = 0
	}
	return runKernels(o.seed, d, o.smoke)
}

// setupReps is how many set-up-only children a driver invocation, or one
// round of the full run, times for its setup_s median: a set-up is a few
// milliseconds, so many are cheap.
const setupReps = 31

// endToEnd lists the end-to-end metrics in report order. fail_share, the
// issue's fifth, is reported as failed/attempted: it is 0 on a healthy
// tree, and a bound relative to a zero median means nothing.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
}

// row is one workload's measurements within a set.
type row struct {
	w      workload
	in     *childInput
	full   []*sample // the untraced repetitions the end-to-end stats come from
	setups []float64 // spawn-to-exit seconds of set-up-only children
	// The traced round: one untraced child and, back to back with it, one
	// traced child, so machine drift between them is as small as it gets.
	base, traced *sample
}

func newRow(w workload, o options) (*row, error) {
	if w.twoWorkers && runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("workload %s runs two workers at once and this box has nproc=1: its wall time would measure time-slicing", w.name)
	}
	in, err := w.build(o.seed, o.smoke)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return &row{w: w, in: in}, nil
}

func (r *row) runFull() error {
	s, err := spawn(r.in)
	if err != nil {
		return fmt.Errorf("%s: %w", r.w.name, err)
	}
	r.full = append(r.full, s)
	return nil
}

// runSetups times setupReps children that do everything except the timed
// call.
func (r *row) runSetups() error {
	in := *r.in
	in.SetupOnly = true
	for i := 0; i < setupReps; i++ {
		s, err := spawn(&in)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", r.w.name, err)
		}
		if s.Error != "" {
			return fmt.Errorf("%s set-up: %s", r.w.name, s.Error)
		}
		r.setups = append(r.setups, s.TotalS)
	}
	return nil
}

func (r *row) runTraced() error {
	var err error
	if r.base, err = spawn(r.in); err != nil {
		return fmt.Errorf("%s: %w", r.w.name, err)
	}
	in := *r.in
	in.Trace = true
	if r.traced, err = spawn(&in); err != nil {
		return fmt.Errorf("%s traced: %w", r.w.name, err)
	}
	return nil
}

// values extracts one end-to-end metric across the row's repetitions.
func (r *row) values(name string) []float64 {
	if name == "setup_s" {
		return r.setups
	}
	v := make([]float64, len(r.full))
	for i, s := range r.full {
		switch name {
		case "wall_s":
			v[i] = s.WallS
		case "cpu_s":
			v[i] = s.CPUS
		case "peak_rss_mb":
			v[i] = s.PeakRSSMB
		}
	}
	return v
}

// all lists every child of the row that ran the timed call, the traced
// round's pair included: the correctness gate covers them all.
func (r *row) all() []*sample {
	if r.traced == nil {
		return r.full
	}
	return append(r.full[:len(r.full):len(r.full)], r.base, r.traced)
}

// check applies the correctness gate to one row and returns what is wrong
// with it, plus its operation counts. Seed-1 full-scale digests must match
// expected.json; every other seed is checked for self-consistency only.
func (r *row) check(o options, expected map[string]string) (problems []string, attempted, failed int) {
	all := r.all()
	for i, s := range all {
		attempted += s.Ops
		failed += s.Failed
		switch {
		case s.Error != "":
			problems = append(problems, fmt.Sprintf("%s: run %d failed: %s", r.w.name, i, s.Error))
		case s.Failed > 0:
			problems = append(problems, fmt.Sprintf("%s: run %d: %d of %d operations ended below continuity %.2f (min %.4f)", r.w.name, i, s.Failed, s.Ops, minContinuity, s.Continuity))
		case s.Digest != all[0].Digest:
			problems = append(problems, fmt.Sprintf("%s: run %d digest %s differs from run 0 digest %s", r.w.name, i, s.Digest, all[0].Digest))
			failed += s.Ops
		}
	}
	if want := expected[r.w.name]; o.seed == 1 && !o.smoke && len(all) > 0 && all[0].Error == "" && all[0].Digest != want {
		problems = append(problems, fmt.Sprintf("%s: seed-1 digest %s differs from expected.json %q (a change to simulated behaviour needs -repin and a reason)", r.w.name, all[0].Digest, want))
		failed = max(failed, 1)
	}
	return problems, attempted, failed
}

func loadExpected() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// runMetrics derives the per-layer numbers that come from a workload's own
// run, from the traced round's pair: the untraced child gives every figure
// that host time enters, the traced child the CPU shares, and the two walls
// together the tracing overhead.
func (r *row) runMetrics() []metric {
	base, traced, wallS := r.base, r.traced, r.base.WallS
	var m []metric
	add := func(name, unit string, v float64) { m = append(m, metric{name, unit, v}) }
	for _, l := range cpuLayers {
		add("cpu_share."+l, "share", traced.CPUShare[l])
	}
	ev := float64(base.Events)
	add("sim.events", "count", ev)
	add("sim.events_per_s", "1/s", ev/wallS)
	add("sim.ns_per_event", "ns", wallS*1e9/ev)

	// An operation is a run or a grid cell; a single run is a grid of one
	// cell on one worker, which keeps these defined on every workload.
	ops, workers := base.CellWallMs, float64(gridWorkers)
	if len(ops) == 0 {
		ops, workers = []float64{base.WallS * 1e3}, 1
	}
	var opSum, opMax float64
	for _, v := range ops {
		opSum += v
		opMax = math.Max(opMax, v)
	}
	add("study.cell_wall_p50_ms", "ms", median(ops))
	add("study.cell_wall_max_ms", "ms", opMax)
	add("study.parallel_efficiency", "share", opSum/(workers*wallS*1e3))
	add("study.cell_overhead_ms", "ms", (workers*wallS*1e3-opSum)/float64(len(ops)))
	add("dash.dropped", "count", float64(base.SSEDropped))

	add("runtime.alloc_mb", "MB", base.AllocMB)
	add("runtime.allocs_per_event", "count", float64(base.Mallocs)/ev)
	add("runtime.gc_cycles", "count", float64(base.GCCycles))
	add("runtime.gc_pause_ms", "ms", base.GCPauseMs)
	add("model.continuity", "share", base.Continuity)
	add("model.video_bytes", "B", float64(base.VideoBytes))
	add("model.drops", "count", float64(base.Drops))
	add("model.retransmits", "count", float64(base.Retransmits))
	add("trace_overhead_pct", "%", 100*(traced.WallS/wallS-1))
	return m
}

// writeTrace stores a traced child's spans as bench/out/trace-<workload>.json.
func writeTrace(o options, name string, s *sample) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, o.seed, s.Spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "trace-"+name+".json"), append(b, '\n'), 0o644)
}

// driverRun is the driver's mode: one workload, one JSON result line.
// Untraced, it repeats fresh children for about `seconds` of child time
// and reports each end-to-end metric's median; traced, it reports
// the per-layer metrics of one traced child plus the kernels.
func driverRun(o options, name string, seconds float64, traced bool, out io.Writer) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	r, err := newRow(w, o)
	if err != nil {
		return err
	}
	expected, err := loadExpected()
	if err != nil {
		return err
	}
	metrics := map[string]map[string]any{}
	put := func(name, unit string, v float64) { metrics[name] = map[string]any{"value": v, "unit": unit} }

	if traced {
		if err := r.runTraced(); err != nil {
			return err
		}
		if err := writeTrace(o, w.name, r.traced); err != nil {
			return err
		}
	} else {
		// Repeat until the measured child time is as close to `seconds` as
		// a whole number of repetitions gets: stop once half another
		// average repetition would overshoot.
		for measured := 0.0; measured+measured/float64(2*max(len(r.full), 1)) < seconds || len(r.full) == 0; {
			if err := r.runFull(); err != nil {
				return err
			}
			last := r.full[len(r.full)-1]
			measured += last.TotalS
			fmt.Fprintf(os.Stderr, "bench: %s rep %d: wall %.3fs cpu %.3fs rss %.1fMB\n", w.name, len(r.full), last.WallS, last.CPUS, last.PeakRSSMB)
		}
		if err := r.runSetups(); err != nil {
			return err
		}
	}
	problems, attempted, failed := r.check(o, expected)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench:", p)
	}
	if traced && len(problems) == 0 {
		for _, m := range r.runMetrics() {
			put(m.Name, m.Unit, m.Value)
		}
		ks, err := o.kernels(kernelTimeDriver)
		if err != nil {
			return err
		}
		for _, m := range ks {
			put(m.Name, m.Unit, m.Value)
		}
	} else if !traced {
		for _, e := range endToEnd {
			put(e.name, e.unit, median(r.values(e.name)))
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": len(problems) == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if len(problems) > 0 {
		return fmt.Errorf("%s: %d correctness problem(s)", w.name, len(problems))
	}
	return nil
}

// stat summarises one end-to-end metric of one workload over a set.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// report is everything the full run prints, also written as report.json.
type report struct {
	Stamp    map[string]string          `json:"stamp"`
	EndToEnd map[string]map[string]stat `json:"end_to_end"` // workload → metric
	// FailShare is failed operations over operations, per workload; an
	// operation is one run or one grid cell.
	FailShare map[string]failShare `json:"fail_share"`
	PerLayer  map[string][]metric  `json:"per_layer"` // workload → its run's metrics
	Kernels   []metric             `json:"kernels"`
	Digests   map[string]string    `json:"digests"`
	Problems  []string             `json:"problems,omitempty"`
}

type failShare struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Share     float64 `json:"share"`
}

// stamp records what the numbers were measured on.
func stamp(o options) map[string]string {
	s := map[string]string{
		"nproc":            fmt.Sprint(runtime.NumCPU()),
		"child_gomaxprocs": fmt.Sprint(childProcs),
		"go":               runtime.Version(),
		"goos_goarch":      runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":              cpuModel(),
		"vcs_revision":     "unknown",
		"seed":             fmt.Sprint(o.seed),
		"scale":            "full",
	}
	if o.smoke {
		s["scale"] = "smoke"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s["vcs_revision"] = kv.Value
			case "vcs.modified":
				s["vcs_modified"] = kv.Value
			}
		}
	}
	return s
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// measureSet runs the set's interleaved rounds over every workload: round-
// robin, so machine drift lands on all rows alike, and no warm-up, because
// a CLI user pays the cold start on every run.
func measureSet(o options, log io.Writer) ([]*row, error) {
	n := rounds
	if o.smoke {
		n = 1
	}
	rows := make([]*row, len(workloads))
	for i, w := range workloads {
		r, err := newRow(w, o)
		if err != nil {
			return nil, err
		}
		rows[i] = r
	}
	for round := 1; round <= n; round++ {
		for _, r := range rows {
			if err := r.runFull(); err != nil {
				return nil, err
			}
			if err := r.runSetups(); err != nil {
				return nil, err
			}
			s := r.full[len(r.full)-1]
			fmt.Fprintf(log, "round %d/%d  %-18s wall %.3fs cpu %.3fs rss %.1fMB\n", round, n, r.w.name, s.WallS, s.CPUS, s.PeakRSSMB)
		}
	}
	return rows, nil
}

// summarise folds a set into end-to-end stats and applies the correctness
// gate, including the cross-row rule that the fleet computes exactly what
// the local study does.
func summarise(o options, rows []*row, rep *report) error {
	expected, err := loadExpected()
	if err != nil {
		return err
	}
	rep.EndToEnd = map[string]map[string]stat{}
	rep.Digests = map[string]string{}
	rep.FailShare = map[string]failShare{}
	for _, r := range rows {
		stats := map[string]stat{}
		for _, e := range endToEnd {
			v := r.values(e.name)
			q1, med, q3 := quartiles(v)
			stats[e.name] = stat{Unit: e.unit, Median: med, Q1: q1, Q3: q3, N: len(v)}
		}
		rep.EndToEnd[r.w.name] = stats
		problems, attempted, failed := r.check(o, expected)
		rep.Problems = append(rep.Problems, problems...)
		rep.FailShare[r.w.name] = failShare{attempted, failed, float64(failed) / float64(max(attempted, 1))}
		rep.Digests[r.w.name] = r.full[0].Digest
	}
	if s, f := rep.Digests["study-grid"], rep.Digests["fleet-grid"]; s != f {
		rep.Problems = append(rep.Problems, fmt.Sprintf("fleet-grid digest %s differs from study-grid digest %s: the fleet did not compute the local study's result", f, s))
		fs := rep.FailShare["fleet-grid"]
		rep.FailShare["fleet-grid"] = failShare{fs.Attempted, fs.Attempted, 1}
	}
	return nil
}

// fullRun is the run without -workload: the untraced rounds, then one
// traced round and the kernels for the per-layer ledger. End-to-end numbers
// never come from the traced round.
func fullRun(o options, out io.Writer) (*report, error) {
	rep := &report{Stamp: stamp(o), PerLayer: map[string][]metric{}}
	fmt.Fprintln(out, "napawine bench — host-time cost of the simulator; simulated statistics are exact per seed.")
	fmt.Fprintln(out, "The model is unvalidated against the paper's published values (the repo holds none yet), so no error figure is given.")
	keys := make([]string, 0, len(rep.Stamp))
	for k := range rep.Stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-17s %s\n", k, rep.Stamp[k])
	}

	rows, err := measureSet(o, out)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := r.runTraced(); err != nil {
			return nil, err
		}
		if err := writeTrace(o, r.w.name, r.traced); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "traced     %-18s wall %.3fs untraced, %.3fs traced\n", r.w.name, r.base.WallS, r.traced.WallS)
	}
	if err := summarise(o, rows, rep); err != nil {
		return nil, err
	}
	byName := map[string]*row{}
	for _, r := range rows {
		byName[r.w.name] = r
		if r.base.Error != "" || r.traced.Error != "" {
			continue // already a reported problem; there is no profile to fold
		}
		rep.PerLayer[r.w.name] = r.runMetrics()
	}
	// The two figures that need a pair of rows.
	walls := func(name string) float64 { return rep.EndToEnd[name]["wall_s"].Median }
	rep.PerLayer["swarm-10k-sharded"] = append(rep.PerLayer["swarm-10k-sharded"], metric{"sharded.event_inflation", "ratio",
		float64(byName["swarm-10k-sharded"].full[0].Events) / float64(byName["swarm-10k"].full[0].Events)})
	rep.PerLayer["fleet-grid"] = append(rep.PerLayer["fleet-grid"], metric{"fleet.overhead_ms_per_cell", "ms",
		(walls("fleet-grid") - walls("study-grid")) * 1e3 / float64(byName["study-grid"].full[0].Ops)})

	if rep.Kernels, err = o.kernels(kernelTimeFull); err != nil {
		return nil, err
	}
	printReport(out, rep)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "report.json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	if len(rep.Problems) > 0 {
		return rep, fmt.Errorf("%d correctness problem(s)", len(rep.Problems))
	}
	return rep, nil
}

func printReport(out io.Writer, rep *report) {
	fmt.Fprintln(out, "\n== end to end: median [q1 q3] n — lower is better ==")
	for _, w := range workloads {
		for _, e := range endToEnd {
			s := rep.EndToEnd[w.name][e.name]
			fmt.Fprintf(out, "%-18s %-12s %-5s %10.4f [%.4f %.4f] n=%d spread %.1f%%\n", w.name, e.name, s.Unit, s.Median, s.Q1, s.Q3, s.N, 100*s.spread())
		}
		fs := rep.FailShare[w.name]
		fmt.Fprintf(out, "%-18s %-12s %-5s %10.4f (%d failed of %d operations)\n", w.name, "fail_share", "share", fs.Share, fs.Failed, fs.Attempted)
	}
	for _, w := range workloads {
		fmt.Fprintf(out, "\n== per layer, from the run: %s ==\n", w.name)
		for _, m := range rep.PerLayer[w.name] {
			fmt.Fprintf(out, "%-28s %-6s %14.4f\n", m.Name, m.Unit, m.Value)
		}
	}
	fmt.Fprintln(out, "\n== per layer, kernels (workload-independent) ==")
	for _, m := range rep.Kernels {
		fmt.Fprintf(out, "%-28s %-6s %14.4f\n", m.Name, m.Unit, m.Value)
	}
	fmt.Fprintln(out, "\n== digests ==")
	for _, w := range workloads {
		fmt.Fprintf(out, "%-18s %s\n", w.name, rep.Digests[w.name])
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(out, "PROBLEM:", p)
	}
}

// bounds reads the regression bound of every end-to-end metric from
// BENCHMARK.json in the working directory, the file that fixes them.
func bounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("-aa reads its bounds from BENCHMARK.json; run from the repository root: %w", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	m := map[string]float64{}
	for _, e := range doc.EndToEnd {
		m[e.Name] = e.Bound
	}
	return m, nil
}

// disagreement is how far apart two medians of one metric are, as a share
// of the smaller: the same whichever set is the slower. Medians that cannot
// be compared (zero, negative, not a number) disagree without limit.
func disagreement(a, b float64) float64 {
	lo, hi := math.Min(a, b), math.Max(a, b)
	if !(lo > 0) { // also true of NaN, which math.Min passes through
		return math.Inf(1)
	}
	return hi/lo - 1
}

// aaCheck runs two full sets on the same tree. They must agree: the two
// medians of every end-to-end metric within the metric's bound of each
// other, whichever is the larger. The observed spreads are printed for the
// record in README.md.
func aaCheck(o options) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	var reps [2]*report
	for i := range reps {
		fmt.Printf("== A/A set %d of 2 ==\n", i+1)
		rows, err := measureSet(o, os.Stdout)
		if err != nil {
			return err
		}
		reps[i] = &report{}
		if err := summarise(o, rows, reps[i]); err != nil {
			return err
		}
		for _, p := range reps[i].Problems {
			fmt.Println("PROBLEM:", p)
		}
	}
	bad := len(reps[0].Problems) + len(reps[1].Problems) + compareSets(reps[0], reps[1], bound, os.Stdout)
	if bad > 0 {
		return fmt.Errorf("A/A failed: %d disagreement(s) or problem(s)", bad)
	}
	fmt.Println("A/A passed: two sets of the same tree agree within every bound.")
	return nil
}

// compareSets prints the two sets' medians side by side and returns how
// many of them disagree by more than their metric's bound.
func compareSets(first, second *report, bound map[string]float64, out io.Writer) (bad int) {
	fmt.Fprintln(out, "\n== A/A: set 1 median, set 2 median, change, bound; spread = IQR/median of each set ==")
	for _, w := range workloads {
		for _, e := range endToEnd {
			a, b := first.EndToEnd[w.name][e.name], second.EndToEnd[w.name][e.name]
			verdict := "ok"
			if !(disagreement(a.Median, b.Median) <= bound[e.name]) {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(out, "%-18s %-12s %10.4f %10.4f %+6.1f%% bound %4.0f%% spread %4.1f%% %4.1f%% %s\n",
				w.name, e.name, a.Median, b.Median, 100*(b.Median/a.Median-1), 100*bound[e.name], 100*a.spread(), 100*b.spread(), verdict)
		}
	}
	return bad
}

// repinExpected rewrites expected.json from one seed-1 full-scale run of
// every workload — the only way the pinned digests change.
func repinExpected(o options) error {
	if o.seed != 1 || o.smoke {
		return fmt.Errorf("-repin pins the seed-1 full-scale digests; drop -seed and -smoke")
	}
	digests := map[string]string{}
	for _, w := range workloads {
		r, err := newRow(w, o)
		if err != nil {
			return err
		}
		if err := r.runFull(); err != nil {
			return err
		}
		if problems, _, _ := r.check(options{seed: 0}, nil); len(problems) > 0 {
			return fmt.Errorf("refusing to pin a failing run: %s", problems[0])
		}
		digests[w.name] = r.full[0].Digest
		fmt.Printf("%-18s %s\n", w.name, r.full[0].Digest)
	}
	if digests["study-grid"] != digests["fleet-grid"] {
		return fmt.Errorf("refusing to pin: fleet-grid and study-grid digests differ")
	}
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(b, '\n'), 0o644)
}
