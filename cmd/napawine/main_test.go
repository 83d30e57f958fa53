package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// Files the checks below may load.
const (
	scenarioFile = "../../internal/scenario/specs/zapping.json"
	studyFile    = "../../internal/study/specs/blind-ablation.json"
)

// validate runs every usage check a command line passes before -out opens —
// the flag validation, then the study build with its registry lookups — and
// returns the first error. The tests below state flag combinations the way
// a user types them.
func validate(t *testing.T, args ...string) error {
	t.Helper()
	o, _, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	if err := o.validate(); err != nil || o.join != "" || o.exp == "table1" {
		return err
	}
	_, err = o.buildStudy()
	return err
}

func TestValidateArgsAcceptsValidCombos(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "all", "-apps", "PPLive,SopCast,TVAnts"},
		{"-exp", "table4", "-apps", "TVAnts", "-scenario", "flashcrowd"},
		{"-exp", "table1", "-apps", "PPLive"},
		{"-exp", "hopsweep", "-apps", "SopCast", "-scenario", "steady", "-strategy", "rarest"},
		{"-exp", "table2", "-apps", "PPLive", "-strategy", "latest-useful"},
		{"-exp", "table2", "-seeds", "5", "-duration", "1s"},
	} {
		if err := validate(t, args...); err != nil {
			t.Errorf("validate(%v) = %v, want nil", args, err)
		}
	}
}

func TestValidateArgsRejectsUnknownExp(t *testing.T) {
	err := validate(t, "-exp", "tabel4", "-apps", "PPLive")
	if err == nil {
		t.Fatal("typo'd -exp accepted")
	}
	for _, v := range validExps {
		if !strings.Contains(err.Error(), v) {
			t.Errorf("usage error %q does not list valid exp %q", err, v)
		}
	}
}

func TestValidateArgsRejectsUnknownApp(t *testing.T) {
	err := validate(t, "-apps", "PPLive,Joost")
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	for _, want := range []string{"Joost", "PPLive", "SopCast", "TVAnts"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("usage error %q missing %q", err, want)
		}
	}
}

func TestValidateArgsRejectsEmptyApps(t *testing.T) {
	if err := validate(t, "-apps", " , "); err == nil {
		t.Error("empty app list accepted")
	}
}

func TestValidateArgsRejectsUnknownScenario(t *testing.T) {
	err := validate(t, "-apps", "PPLive", "-scenario", "worldcup")
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, want := range []string{"worldcup", "steady", "flashcrowd", "diurnal", "partition"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("usage error %q missing %q", err, want)
		}
	}
}

func TestParseApps(t *testing.T) {
	got := parseApps(" TVAnts, PPLive,TVAnts,, ")
	if len(got) != 2 || got[0] != "TVAnts" || got[1] != "PPLive" {
		t.Errorf("parseApps = %v, want [TVAnts PPLive]", got)
	}
	if got := parseApps(""); got != nil {
		t.Errorf("parseApps(\"\") = %v, want nil", got)
	}
}

func TestValidateArgsRejectsScenarioWithTable1(t *testing.T) {
	if err := validate(t, "-exp", "table1", "-scenario", "flashcrowd"); err == nil {
		t.Error("-scenario with -exp table1 accepted (it would be silently ignored)")
	}
}

func TestValidateArgsRejectsUnknownStrategy(t *testing.T) {
	err := validate(t, "-strategy", "newest")
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, want := range []string{"newest", "urgent-random", "latest-useful", "rarest", "deadline"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("usage error %q missing %q", err, want)
		}
	}
}

func TestValidateArgsRejectsStrategyWithTable1(t *testing.T) {
	if err := validate(t, "-exp", "table1", "-strategy", "rarest"); err == nil {
		t.Error("-strategy with -exp table1 accepted (it would be silently ignored)")
	}
}

// TestValidateArgsScenarioFile: -scenario takes a path ending in .json as
// a scenario file; anything else is a registered name.
func TestValidateArgsScenarioFile(t *testing.T) {
	if err := validate(t, "-scenario", scenarioFile); err != nil {
		t.Errorf("-scenario with a .json file rejected: %v", err)
	}
	if err := validate(t, "-scenario", "no-such.json"); err == nil || !strings.Contains(err.Error(), "no-such.json") {
		t.Errorf("-scenario with a missing file: %v, want an error naming the path", err)
	}
	// Without .json the value is a name, and a miss lists the registry.
	if err := validate(t, "-scenario", "matchday"); err == nil || !strings.Contains(err.Error(), "flashcrowd") {
		t.Errorf("-scenario with an unregistered name: %v, want an error listing the registry", err)
	}
	if err := validate(t, "-exp", "table1", "-scenario", "f.json"); err == nil {
		t.Error("-scenario file with -exp table1 accepted (it would be silently ignored)")
	}
}

func TestValidateStudyArgs(t *testing.T) {
	if err := validate(t, "-study", "strategy-comparison"); err != nil {
		t.Errorf("registered study rejected: %v", err)
	}
	if err := validate(t, "-study", studyFile); err != nil {
		t.Errorf("study file rejected: %v", err)
	}
	if err := validate(t, "-study", "no-such.json"); err == nil || !strings.Contains(err.Error(), "no-such.json") {
		t.Errorf("-study with a missing file: %v, want an error naming the path", err)
	}
	// Without .json the value is a name, and a miss lists the registry.
	err := validate(t, "-study", "worldcup")
	if err == nil {
		t.Fatal("unknown study accepted")
	}
	for _, want := range []string{"worldcup", "strategy-comparison"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("usage error %q missing %q", err, want)
		}
	}
	// Overridable knobs are fine; axis-defining flags are not.
	if err := validate(t, "-study", "strategy-comparison",
		"-duration", "30s", "-seeds", "2", "-scale", "0.2", "-apps", "TVAnts"); err != nil {
		t.Errorf("override flags rejected: %v", err)
	}
	for _, f := range [][]string{{"-exp", "table4"}, {"-scenario", "flashcrowd"},
		{"-scenario", scenarioFile}, {"-strategy", "rarest"}} {
		err := validate(t, append([]string{"-study", "strategy-comparison"}, f...)...)
		if err == nil || !strings.Contains(err.Error(), f[0]) {
			t.Errorf("%s with -study: %v, want a usage error naming it (it would be silently ignored)", f[0], err)
		}
	}
}

func TestValidateFleetArgs(t *testing.T) {
	study := []string{"-listen", ":0", "-study", "blind-ablation"}
	with := func(base []string, more ...string) []string { return append(append([]string(nil), base...), more...) }
	// Plain local runs are untouched.
	if err := validate(t, "-exp", "table4"); err != nil {
		t.Errorf("local run rejected: %v", err)
	}
	// A coordinator serves a study — loaded, or built from -exp with a seed
	// axis — and owns -resume/-lease-ttl.
	if err := validate(t, with(study, "-resume", "spool", "-lease-ttl", "5s")...); err != nil {
		t.Errorf("coordinator flags rejected: %v", err)
	}
	if err := validate(t, "-listen", ":0", "-exp", "table2", "-seeds", "2", "-resume", "spool"); err != nil {
		t.Errorf("replicated -exp run rejected as a coordinator: %v", err)
	}
	// One seed prints from full results, which fleet workers do not ship.
	for _, args := range [][]string{{"-listen", ":0"}, {"-listen", ":0", "-exp", "table4", "-seeds", "1"}} {
		if err := validate(t, args...); err == nil || !strings.Contains(err.Error(), "-listen") {
			t.Errorf("%v: %v, want a usage error naming -listen", args, err)
		}
	}
	if err := validate(t, with(study, "-workers", "2")...); err == nil {
		t.Error("-workers with -listen accepted (the coordinator runs no cells)")
	}
	for _, ttl := range []string{"0s", "500us"} {
		if err := validate(t, with(study, "-lease-ttl", ttl)...); err == nil {
			t.Errorf("-lease-ttl %s accepted (workers are told it in whole milliseconds)", ttl)
		}
	}
	if err := validate(t, with(study, "-lease-ttl", "1ms")...); err != nil {
		t.Errorf("-lease-ttl 1ms, the resolution workers are told it in, rejected: %v", err)
	}
	// Coordinator and worker roles are exclusive.
	if err := validate(t, with(study, "-join", "host:1")...); err == nil {
		t.Error("-listen together with -join accepted")
	}
	// -resume / -lease-ttl mean nothing without -listen.
	for _, f := range [][]string{{"-resume", "spool"}, {"-lease-ttl", "5s"}} {
		if err := validate(t, f...); err == nil {
			t.Errorf("%s without -listen accepted", f[0])
		}
	}
	// A worker takes only its budget and profiles; everything else about
	// the run comes from the coordinator.
	if err := validate(t, "-join", "host:1", "-workers", "2", "-cpuprofile", "c", "-memprofile", "m"); err != nil {
		t.Errorf("worker whitelist rejected: %v", err)
	}
	for _, f := range [][]string{{"-study", "blind-ablation"}, {"-study", "s.json"},
		{"-exp", "table2"}, {"-seeds", "2"}, {"-duration", "30s"}, {"-out", "o"}, {"-svg-out", "d"}, {"-http", ":0"}} {
		err := validate(t, append([]string{"-join", "host:1"}, f...)...)
		if err == nil || !strings.Contains(err.Error(), f[0]) {
			t.Errorf("%s with -join: %v, want a usage error naming it", f[0], err)
		}
	}
}

// TestValidateRejectsIgnoredValues: a value the run would silently replace
// or ignore is a usage error on every path, naming the flag.
func TestValidateRejectsIgnoredValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-seeds", "0"}, "-seeds"},
		{[]string{"-seeds", "-3"}, "-seeds"},
		{[]string{"-study", "blind-ablation", "-seeds", "0"}, "-seeds"},
		{[]string{"-study", "blind-ablation", "-seeds", "-1"}, "-seeds"},
		{[]string{"-duration", "-5s"}, "-duration"},
		{[]string{"-duration", "0"}, "-duration"},
		{[]string{"-study", "blind-ablation", "-duration", "-5s"}, "-duration"},
		{[]string{"-exp", "table2", "-seeds", "2", "-listen", ":0", "-duration", "0s"}, "-duration"},
		{[]string{"-queue-depth", "-1"}, "-queue-depth"},
		{[]string{"-peers", "60", "-scale", "0.5"}, "-peers"},
		{[]string{"-http-linger", "5s"}, "-http-linger"},
		{[]string{"-http", "127.0.0.1:0", "-http-linger", "-5s"}, "-http-linger"},
		{[]string{"-workers", "-3"}, "-workers"},
		{[]string{"-join", "127.0.0.1:1", "-workers", "-3"}, "-workers"},
		{[]string{"-exp", "table1", "-http", ":0"}, "-http"},
		{[]string{"-exp", "table1", "-svg-out", "d"}, "-svg-out"},
		{[]string{"-exp", "table1", "-seeds", "2", "-listen", ":0"}, "-listen"},
		{[]string{"-exp", "fig1", "-seeds", "2"}, "fig1"},
		{[]string{"-exp", "fig2", "-seeds", "3"}, "fig2"},
		{[]string{"-exp", "hopsweep", "-seeds", "2"}, "hopsweep"},
		// A listing prints a registry and exits: it takes no other flag.
		{[]string{"-list", "scenarios", "-out", "f.txt"}, "-out does not apply to -list"},
		{[]string{"-list", "strategies", "-seeds", "3"}, "-seeds does not apply to -list"},
		{[]string{"-list", "studies", "-scenario", "flashcrowd", "-exp", "table4"}, "-exp, -scenario does not apply"},
		{[]string{"-list", "registries"}, "scenarios, strategies, studies"},
	} {
		err := validate(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("validate(%v) = %v, want a usage error naming %s", tc.args, err, tc.want)
		}
	}
}

// TestBuildStudyOverrides pins the one flag→study compilation: every knob
// lands over the empty base, only the explicitly-set ones over a loaded
// study.
func TestBuildStudyOverrides(t *testing.T) {
	build := func(args ...string) *options {
		t.Helper()
		o, _, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	st, err := build("-apps", "TVAnts,SopCast", "-seed", "7", "-seeds", "3", "-duration", "20s",
		"-peers", "60", "-strategy", "rarest", "-scenario", "flashcrowd", "-queue-depth", "2").buildStudy()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.SeedList(); len(got) != 3 || got[0] != 7 || got[2] != 9 {
		t.Errorf("seeds = %v, want [7 8 9]", got)
	}
	if st.Peers != 60 || st.PeerFactor != 0 {
		t.Errorf("sizing = %d peers / factor %v; an untouched -scale must not count against -peers", st.Peers, st.PeerFactor)
	}
	if st.Runs() != 6 || st.Apps[0] != "TVAnts" || st.Strategies[0] != "rarest" ||
		st.Scenarios[0].Name != "flashcrowd" || !slices.Equal(st.QueueDepths, []int{2}) || time.Duration(st.Duration) != 20*time.Second {
		t.Errorf("flag-built study = %+v", st)
	}
	if st, err = build().buildStudy(); err != nil || st.PeerFactor != 1 || st.Runs() != 3 || st.Duration == 0 {
		t.Errorf("default study = %+v, %v", st, err)
	}

	// Over a loaded study the flags' defaults must not leak in.
	st, err = build("-study", "awareness-ablation").buildStudy()
	if err != nil {
		t.Fatal(err)
	}
	if st.Trials != 3 || st.PeerFactor != 0 || len(st.QueueDepths) != 2 || time.Duration(st.Duration) != 2*time.Minute {
		t.Errorf("flag defaults leaked into the loaded study: %+v", st)
	}
	st, err = build("-study", "awareness-ablation", "-seeds", "2", "-seed", "5", "-queue-depth", "1", "-scale", "0.1").buildStudy()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.SeedList(); len(got) != 2 || got[0] != 5 {
		t.Errorf("seeds = %v, want [5 6]", got)
	}
	if !slices.Equal(st.QueueDepths, []int{1}) || st.PeerFactor != 0.1 {
		t.Errorf("explicit overrides not applied: %+v", st)
	}
	// -queue-depth 0 collapses the axis to the unbounded default.
	if st, err = build("-study", "awareness-ablation", "-queue-depth", "0").buildStudy(); err != nil || st.QueueDepths != nil {
		t.Errorf("-queue-depth 0 over a congestion axis = %v, %v; want no axis", st.QueueDepths, err)
	}
	// A bad axis after the overrides is an error here, before -out opens.
	if _, err := build("-study", "blind-ablation", "-apps", "TVAnts,Joost").buildStudy(); err == nil {
		t.Error("unknown app in a study override accepted")
	}
	if _, err := build("-scenario", "no-such.json").buildStudy(); err == nil {
		t.Error("missing scenario file accepted")
	}
}

// TestSeedFlagsOverAListedSeedAxis: over a study that lists its seeds, a
// typed -seed moves the whole axis and a typed -seeds resizes it from the
// study's first seed; neither drops the other half of the axis. A list of
// one seed is an axis too.
func TestSeedFlagsOverAListedSeedAxis(t *testing.T) {
	dir := t.TempDir()
	listed, single := filepath.Join(dir, "listed.json"), filepath.Join(dir, "single.json")
	for path, body := range map[string]string{
		listed: `{"name": "listed", "apps": ["TVAnts"], "seeds": [10, 11, 12]}`,
		single: `{"name": "single", "apps": ["TVAnts"], "seeds": [10]}`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		path  string
		flags []string
		want  []int64
	}{
		{listed, nil, []int64{10, 11, 12}},
		{listed, []string{"-seed", "5"}, []int64{5, 6, 7}},
		{listed, []string{"-seeds", "2"}, []int64{10, 11}},
		{listed, []string{"-seeds", "2", "-seed", "5"}, []int64{5, 6}},
		{single, []string{"-seed", "5"}, []int64{5}},
	} {
		o, _, err := parseFlags(append([]string{"-study", tc.path}, tc.flags...))
		if err != nil {
			t.Fatal(err)
		}
		st, err := o.buildStudy()
		if err != nil {
			t.Fatalf("%v: %v", tc.flags, err)
		}
		if got := st.SeedList(); !slices.Equal(got, tc.want) {
			t.Errorf("%v over %s: seeds %v, want %v", tc.flags, filepath.Base(tc.path), got, tc.want)
		}
	}
}
