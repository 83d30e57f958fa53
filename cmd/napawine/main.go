// Command napawine runs the paper's experiments and regenerates its tables
// and figures.
//
// Usage:
//
//	napawine -exp table2                 # Table II across all three apps
//	napawine -exp table4 -duration 10m   # the headline awareness table
//	napawine -exp all -apps SopCast      # everything, one app
//	napawine -exp hopsweep               # A2 ablation: HOP threshold sweep
//	napawine -exp table1                 # testbed inventory (no simulation)
//	napawine -seeds 5 -workers 4         # replicated run, tables with ±stderr
//	napawine -scenario flashcrowd        # inject a workload scenario + time series (or a .json file)
//	napawine -list scenarios             # show a registry (also strategies, studies)
//	napawine -strategy rarest            # swap the chunk-scheduling strategy
//	napawine -study strategy-comparison  # run a registered study grid (or a .json file)
//	napawine -http localhost:8080        # live dashboard while the run executes
//	napawine -study X -listen :9000      # coordinate a distributed fleet
//	napawine -seeds 5 -listen :9000      # ... or distribute a replicated run
//	napawine -join host:9000             # join a fleet as a worker
//	napawine -study X -listen :0 -resume spool/  # checkpoint cells; restart resumes
//
// Every invocation is one pipeline — parse → validate → build one study →
// execute it (locally, as a fleet coordinator, or as a fleet worker) →
// render: one seed is a one-seed grid, -seeds N its seed axis, -study a
// whole loaded grid, and only the rendering differs between them.
//
// Deterministic: the same -seed/-seeds pair regenerates byte-identical
// tables — scenario or not, local or fleet, and regardless of -workers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"napawine/internal/dash"
	"napawine/internal/fleet"
	"napawine/internal/plot"
	"napawine/internal/scenario"
	"napawine/internal/study"
)

// validExps lists the accepted -exp values, in help order.
var validExps = []string{"table1", "table2", "table3", "table4", "fig1", "fig2", "hopsweep", "all"}

// validLists lists the accepted -list values, in help order.
var validLists = []string{"scenarios", "strategies", "studies"}

// options is the parsed command line: one field per flag, plus the set of
// flags the user actually typed.
type options struct {
	exp, apps, scenario, strategy, study, list                      string
	seed                                                            int64
	seeds, peers, workers, queueDepth                               int
	scale                                                           float64
	duration, httpLinger, leaseTTL                                  time.Duration
	csv                                                             bool
	out, svgOut, http, cpuProfile, memProfile, listen, join, resume string

	explicit map[string]bool
}

// parseFlags declares the command line and reads args into a fresh options.
// The flag package's own diagnostics are silenced: run prints every usage
// error, a malformed flag included, the same way.
func parseFlags(args []string) (*options, *flag.FlagSet, error) {
	o := &options{explicit: map[string]bool{}}
	fs := flag.NewFlagSet("napawine", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(validExps, "|"))
	fs.StringVar(&o.apps, "apps", "PPLive,SopCast,TVAnts", "comma-separated application list")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed (with -seeds or a study: first trial seed)")
	fs.IntVar(&o.seeds, "seeds", 1, "trial seeds per app; >1 replicates the run and prints ±stderr tables")
	fs.DurationVar(&o.duration, "duration", 5*time.Minute, "virtual experiment duration")
	fs.Float64Var(&o.scale, "scale", 1.0, "background population scale factor")
	fs.IntVar(&o.peers, "peers", 0, "absolute background population (overrides -scale; 0 = per-app default)")
	fs.IntVar(&o.workers, "workers", 0, "parallel experiments (0 = GOMAXPROCS)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile (taken at exit) to this file")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.StringVar(&o.out, "out", "", "write tables/CSV to this file instead of stdout")
	fs.StringVar(&o.scenario, "scenario", "", "workload scenario to inject: registered name (see -list scenarios) or a .json scenario file (see README: authoring scenario files)")
	fs.StringVar(&o.strategy, "strategy", "", "chunk-scheduling strategy: registered name or hybrid:k=v,... (see -list strategies)")
	fs.IntVar(&o.queueDepth, "queue-depth", 0, "bound every peer's uplink queue at this many chunks, tail-dropping beyond it (0 = unbounded, congestion off)")
	fs.StringVar(&o.study, "study", "", "study grid to run: registered name (see -list studies) or a .json study file (see README: running studies)")
	fs.StringVar(&o.list, "list", "", "print a registry and exit: "+strings.Join(validLists, "|"))
	fs.StringVar(&o.http, "http", "", "serve a live dashboard on this address while the run executes (port 0 picks a free one; see README: watching a study live)")
	fs.DurationVar(&o.httpLinger, "http-linger", 0, "keep the -http dashboard serving this long after the run finishes")
	fs.StringVar(&o.svgOut, "svg-out", "", "write SVG chart artifacts into this directory")
	fs.StringVar(&o.listen, "listen", "", "coordinate a distributed fleet: serve the run's study grid (-study, or -exp with -seeds 2+) to -join workers on this address (port 0 picks a free one; see README: running a fleet)")
	fs.StringVar(&o.join, "join", "", "join the fleet coordinator at this host:port as a worker and execute leased cells")
	fs.StringVar(&o.resume, "resume", "", "-listen: checkpoint completed cells into this spool directory and skip them on restart")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", fleet.DefaultLeaseTTL, "-listen: cell lease window; a worker silent this long loses its cell back to the queue")
	err := fs.Parse(args)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	fs.Visit(func(f *flag.Flag) { o.explicit[f.Name] = true })
	return o, fs, err
}

// fromStudy reports whether the run's grid is loaded (-study) rather than
// built from the single-run flags.
func (o *options) fromStudy() bool { return o.study != "" }

// explicitBeyond lists the flags the user typed outside allowed, sorted
// and comma-separated as typed ("-exp, -seeds"); "" when there are none.
func (o *options) explicitBeyond(allowed ...string) string {
	var bad []string
	for f := range o.explicit {
		if !slices.Contains(allowed, f) {
			bad = append(bad, "-"+f)
		}
	}
	slices.Sort(bad)
	return strings.Join(bad, ", ")
}

// paperFormat reports whether the run prints as the paper does — Tables
// II–IV, Figures 1–2 and the hop sweep, from one run's full results — which
// is what a one-seed flag-built study is.
func (o *options) paperFormat(st *study.Study) bool {
	return !o.fromStudy() && len(st.SeedList()) == 1
}

// show reports whether -exp selects the named table or figure.
func (o *options) show(name string) bool { return o.exp == name || o.exp == "all" }

// validate is the one place a flag combination is rejected: a contradiction
// or a value the run would ignore is a loud usage error before any file is
// opened. Registries are not consulted here — buildStudy's validation names
// a typo'd app, scenario, strategy or study with the valid choices.
func (o *options) validate() error {
	if o.explicit["list"] {
		// A listing prints and exits; any other flag would be ignored.
		if !slices.Contains(validLists, o.list) {
			return fmt.Errorf("unknown -list %q (valid: %s)", o.list, strings.Join(validLists, ", "))
		}
		if bad := o.explicitBeyond("list"); bad != "" {
			return fmt.Errorf("%s does not apply to -list (it prints a registry and exits)", bad)
		}
		return nil
	}
	// Selectors the run would silently ignore: a study defines its own
	// axes, and the testbed inventory (table1) simulates nothing.
	for _, f := range []string{"exp", "scenario", "strategy"} {
		if o.fromStudy() && o.explicit[f] {
			return fmt.Errorf("-%s does not apply to a study run (the study defines its own axes)", f)
		}
	}
	for _, f := range []string{"scenario", "strategy", "http", "svg-out", "listen"} {
		if o.exp == "table1" && o.explicit[f] {
			return fmt.Errorf("-%s runs no simulation under -exp table1 (the testbed inventory is static)", f)
		}
	}
	switch {
	case !slices.Contains(validExps, o.exp):
		return fmt.Errorf("unknown -exp %q (valid: %s)", o.exp, strings.Join(validExps, ", "))
	case len(parseApps(o.apps)) == 0:
		return fmt.Errorf("empty -apps list (valid: %s)", strings.Join((&study.Study{}).AppList(), ", "))
	case o.seeds < 1:
		return fmt.Errorf("-seeds %d: need at least one trial seed", o.seeds)
	case o.duration <= 0:
		return fmt.Errorf("non-positive -duration %v", o.duration)
	case o.workers < 0:
		return fmt.Errorf("negative -workers %d", o.workers)
	case o.queueDepth < 0:
		return fmt.Errorf("negative -queue-depth %d", o.queueDepth)
	case o.explicit["peers"] && o.explicit["scale"]:
		// The study layer would silently run whichever sizing won.
		return fmt.Errorf("-peers and -scale are mutually exclusive")
	case o.httpLinger < 0:
		return fmt.Errorf("negative -http-linger %v", o.httpLinger)
	case o.httpLinger != 0 && o.http == "":
		return fmt.Errorf("-http-linger requires -http")
	case o.seeds > 1 && slices.Contains([]string{"fig1", "fig2", "hopsweep"}, o.exp):
		// They read one run's full observations; replicated runs keep none.
		return fmt.Errorf("-exp %s is a single-run reduction; drop -seeds or use -seeds 1", o.exp)
	}
	return o.validateFleet()
}

// validateFleet rejects what contradicts a fleet run: a coordinator
// (-listen) owns -resume/-lease-ttl and runs no cells, so takes no -workers;
// a worker (-join) takes nothing but its concurrency budget and profiles.
func (o *options) validateFleet() error {
	switch {
	case o.listen != "" && o.join != "":
		return fmt.Errorf("-listen and -join are mutually exclusive (a process is a coordinator or a worker, not both)")
	case o.listen == "" && (o.explicit["resume"] || o.explicit["lease-ttl"]):
		return fmt.Errorf("-resume and -lease-ttl require -listen (they configure the fleet coordinator)")
	case o.listen == "" && o.join == "":
		return nil
	case o.listen != "" && !o.fromStudy() && o.seeds < 2:
		return fmt.Errorf("-listen cannot serve a one-seed -exp run (its tables and figures need the full results fleet workers do not ship): add -seeds 2 or more, or name a -study")
	case o.listen != "" && o.explicit["workers"]:
		return fmt.Errorf("-workers does not apply to -listen (the coordinator runs no cells; each -join worker sets its own)")
	case o.listen != "" && o.leaseTTL < time.Millisecond:
		return fmt.Errorf("-lease-ttl %v is under 1ms, the resolution workers are told it in", o.leaseTTL)
	}
	// Everything else comes from the coordinator; a local knob would be
	// silently ignored.
	if bad := o.explicitBeyond("join", "workers", "cpuprofile", "memprofile"); o.join != "" && bad != "" {
		return fmt.Errorf("%s does not apply to -join (the worker takes its study and settings from the coordinator)", bad)
	}
	return nil
}

// parseApps splits and dedups the -apps flag, dropping empty entries.
func parseApps(appsFlag string) []string {
	var out []string
	for _, a := range strings.Split(appsFlag, ",") {
		if a = strings.TrimSpace(a); a != "" && !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// buildStudy compiles the command line into the one study the run
// executes. The base is the loaded -study grid, or an empty study with the
// -strategy/-scenario axes; -study and -scenario each take a registered
// name or a path ending in .json. The run knobs are then written over it
// once — all of them over the empty base, only the explicitly-set ones over
// a loaded study (so one registered grid scales from a CI smoke run to the
// full campaign) — and the result is validated.
func (o *options) buildStudy() (*study.Study, error) {
	var st *study.Study
	var err error
	switch {
	case strings.HasSuffix(o.study, ".json"):
		st, err = study.LoadFile(o.study)
	case o.study != "":
		st, err = study.ByName(o.study)
	default:
		var scn study.Scenario
		if strings.HasSuffix(o.scenario, ".json") {
			scn.Spec, err = scenario.LoadFile(o.scenario)
		} else {
			scn.Name = o.scenario
		}
		st = &study.Study{Name: "battery",
			Strategies: []string{o.strategy}, Scenarios: []study.Scenario{scn}}
	}
	if err != nil {
		return nil, err
	}
	set := func(name string) bool { return o.explicit[name] || !o.fromStudy() }
	if set("duration") {
		st.Duration = study.Duration(o.duration)
	}
	// A listed seed axis is first restated as its first seed and its
	// length, so -seed moves the whole axis and -seeds resizes it.
	if len(st.Seeds) > 0 && (set("seed") || set("seeds")) {
		st.Seeds, st.BaseSeed, st.Trials = nil, st.Seeds[0], len(st.Seeds)
	}
	if set("seeds") {
		st.Trials = o.seeds
	}
	if set("seed") {
		st.BaseSeed = o.seed
	}
	// -peers and -scale are two sizings of one world; an untouched -scale
	// default must not count against an explicit -peers.
	if o.explicit["peers"] {
		st.Peers, st.PeerFactor = o.peers, 0
	} else if set("scale") {
		st.Peers, st.PeerFactor = 0, o.scale
	}
	if set("queue-depth") {
		// A pinned depth collapses any congestion axis the study declared.
		st.QueueDepths = nil
		if o.queueDepth > 0 {
			st.QueueDepths = []int{o.queueDepth}
		}
	}
	if set("apps") {
		st.Apps = parseApps(o.apps)
	}
	return st, st.Validate()
}

// usageError marks an error the user fixes on the command line (exit 2).
type usageError struct{ error }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind a testable signature: exit status 0, 1
// for a failed run, 2 for a usage error. Several goroutines write progress
// to stderr, so like *os.File it must take concurrent Writes.
func run(args []string, stdout, stderr io.Writer) int {
	o, fs, err := parseFlags(args)
	fs.SetOutput(stderr)
	if errors.Is(err, flag.ErrHelp) {
		fs.Usage()
		return 0
	}
	if err != nil {
		err = usageError{err}
	} else {
		err = o.execute(stdout, stderr)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "napawine:", err)
	if errors.As(err, new(usageError)) {
		fs.Usage()
		return 2
	}
	return 1
}

// execute is the pipeline after parsing: validate → (list | worker | table
// I | build the study → run it → render).
func (o *options) execute(stdout, stderr io.Writer) (err error) {
	if err := o.validate(); err != nil {
		return usageError{err}
	}
	if list := o.listing(); list != "" {
		_, err = io.WriteString(stdout, list)
		return err
	}
	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()
	// A fleet worker needs nothing local: it downloads the study, leases
	// cells until disbanded, and prints no tables (the coordinator does).
	if o.join != "" {
		return fleet.RunWorker(context.Background(), fleet.WorkerConfig{
			Addr: o.join, Workers: o.workers,
			Log: func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
		})
	}
	var st *study.Study
	if o.exp != "table1" {
		if st, err = o.buildStudy(); err != nil {
			return usageError{err}
		}
	}
	// -out opens only now: a usage error can never truncate a previous
	// run's artifact, and a bad destination still fails before simulating.
	out := stdout
	if o.out != "" {
		f, cerr := os.Create(o.out)
		if cerr != nil {
			return cerr
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		out = f
	}
	if st == nil {
		return renderTableI(&printer{out: out, csv: o.csv})
	}
	return o.runStudy(st, out, stderr)
}

// runStudy executes the study and renders it, with the live dashboard (when
// -http is set) watching the same observer stream as the progress lines.
func (o *options) runStudy(st *study.Study, out, stderr io.Writer) (err error) {
	start := time.Now()
	observers := []study.Observer{&progress{w: stderr, start: start}}
	var ds *dash.Server
	if o.http != "" {
		if ds, err = dash.New(o.http); err != nil {
			return err
		}
		defer ds.Close()
		fmt.Fprintf(stderr, "dashboard: http://%s/\n", ds.Addr())
		if err = ds.BeginStudy(st); err != nil {
			return err
		}
		observers = append(observers, ds)
	}
	banner(stderr, st)
	var res *study.Result
	if o.listen != "" {
		res, err = o.coordinate(st, observers, ds, stderr)
	} else {
		opts := []study.Option{study.WithWorkers(o.workers)}
		if o.paperFormat(st) {
			// Observations and figures too; one seed keeps that affordable.
			opts = append(opts, study.WithFullResults())
		}
		for _, obs := range observers {
			opts = append(opts, study.WithObserver(obs))
		}
		res, err = study.Run(context.Background(), st, opts...)
	}
	if err != nil {
		return err
	}
	var events uint64
	for _, c := range res.Cells {
		events += c.Summary.Events
	}
	fmt.Fprintf(stderr, "done in %v (%d runs, %d simulation events)\n\n",
		time.Since(start).Round(time.Millisecond), len(res.Cells), events)

	p := &printer{out: out, csv: o.csv}
	arts := o.render(p, res)
	if p.err != nil {
		return p.err
	}
	if o.svgOut != "" && len(arts) > 0 {
		// Fail loudly: a partial directory must not pass for a complete one.
		paths, err := plot.WriteDir(o.svgOut, arts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d SVG artifacts to %s\n", len(paths), o.svgOut)
	}
	if ds != nil && o.httpLinger > 0 {
		// So scripts and CI can still curl a finished run.
		fmt.Fprintf(stderr, "dashboard lingering %v\n", o.httpLinger)
		time.Sleep(o.httpLinger)
	}
	return nil
}

// coordinate serves the study's cells to -join workers instead of running
// them here; fleet events (joins, lease expiries, spool restores) also
// narrate onto the dashboard's fleet log.
func (o *options) coordinate(st *study.Study, observers []study.Observer, ds *dash.Server, stderr io.Writer) (*study.Result, error) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
		if ds != nil {
			ds.Note("fleet", fmt.Sprintf(format, args...))
		}
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Study: st, Addr: o.listen, LeaseTTL: o.leaseTTL, SpoolDir: o.resume,
		Observers: observers, Log: logf,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	fmt.Fprintf(stderr, "fleet: coordinating on %s, lease ttl %v (join with: napawine -join %s)\n",
		coord.Addr(), o.leaseTTL, coord.Addr())
	return coord.Wait(context.Background())
}

// startProfiles wires -cpuprofile / -memprofile (runtime/pprof). The
// returned stop ends the CPU profile and writes the heap profile.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	stopCPU := func() error { return nil }
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, errors.Join(err, f.Close())
		}
		stopCPU = func() error { pprof.StopCPUProfile(); return f.Close() }
	}
	return func() error {
		err := stopCPU()
		if mem == "" {
			return err
		}
		f, cerr := os.Create(mem)
		if cerr != nil {
			return errors.Join(err, cerr)
		}
		runtime.GC() // up-to-date allocation stats, like net/http/pprof
		return errors.Join(err, pprof.WriteHeapProfile(f), f.Close())
	}, nil
}
