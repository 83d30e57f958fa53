package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"napawine/internal/scenario"
	"napawine/internal/study"
)

// workload is one named set of inputs. build makes the child's input from
// the seed alone; the program under test never sees the seed or the
// workload's identity, only the generated configuration.
type workload struct {
	name string
	why  string
	// twoWorkers marks workloads whose timed call runs two cells or shard
	// engines at once; they are refused on a one-core box, where their
	// wall time would measure time-slicing rather than the program.
	twoWorkers bool
	build      func(seed int64, smoke bool) (*childInput, error)
}

// childInput is everything a child process is told. Run and Study travel in
// the repo's own public codecs (scenario.Encode, study.Encode), so input
// generation exercises the same decoding a CLI user's files do.
type childInput struct {
	Kind string    `json:"kind"` // "run", "study" or "fleet"
	Run  *runInput `json:"run,omitempty"`
	// Study is study.Encode's output for the grid kinds.
	Study json.RawMessage `json:"study,omitempty"`
	// Trace turns on the harness's spans and CPU profile around the timed
	// call; SetupOnly skips the timed call so set-up can be timed alone.
	Trace     bool `json:"trace,omitempty"`
	SetupOnly bool `json:"setup_only,omitempty"`
}

// runInput configures one experiment.Run on top of experiment.Default(App).
type runInput struct {
	App        string          `json:"app"`
	Seed       int64           `json:"seed"`       // the simulation's RNG streams
	WorldSeed  int64           `json:"world_seed"` // the population draw
	Duration   study.Duration  `json:"duration"`
	JoinWindow study.Duration  `json:"join_window,omitempty"` // 0 = the default 60 s background ramp
	Peers      int             `json:"peers,omitempty"`
	Shards     int             `json:"shards,omitempty"`
	QueueDepth int             `json:"queue_depth,omitempty"`
	Scenario   json.RawMessage `json:"scenario,omitempty"` // scenario.Encode output
}

// Population and virtual length of each workload, full and smoke scale.
// Populations are the point of each tier and are never cut to fit a time
// budget; virtual durations are what was trimmed to fit the driver's cap
// (see README.md, "Sizing").
const (
	smokePeers    = 100
	smokeDuration = 10 * time.Second

	singleDuration = 2 * time.Minute
	swarmPeers     = 10000
	swarmDuration  = 14 * time.Second
	swarmJoin      = 10 * time.Second
	churnDuration  = time.Minute
	churnJoin      = 15 * time.Second
	gridDuration   = 30 * time.Second
)

var workloads = []workload{
	{
		name: "single-pplive",
		why:  "the run every napawine -exp user makes: overlay, chunkstream, topology and maps do the work, capture and reduce the rest",
		build: func(seed int64, smoke bool) (*childInput, error) {
			return runWorkload(runInput{App: "PPLive", Seed: seed, Duration: study.Duration(singleDuration)}, "", smoke)
		},
	},
	{
		name: "swarm-10k",
		why:  "scale tier: deep wheel, cache-hostile node state, memory; capture is negligible, so a capture gain must show no change here",
		build: func(seed int64, smoke bool) (*childInput, error) {
			return runWorkload(runInput{App: "PPLive", Seed: seed, Duration: study.Duration(swarmDuration), JoinWindow: study.Duration(swarmJoin), Peers: swarmPeers}, "steady", smoke)
		},
	},
	{
		name:       "swarm-10k-sharded",
		why:        "swarm-10k with Shards=2: sim.Sharded barriers and cross-shard messages; against swarm-10k it answers prove-it-or-cut-it",
		twoWorkers: true,
		build: func(seed int64, smoke bool) (*childInput, error) {
			return runWorkload(runInput{App: "PPLive", Seed: seed, Duration: study.Duration(swarmDuration), JoinWindow: study.Duration(swarmJoin), Peers: swarmPeers, Shards: 2}, "steady", smoke)
		},
	},
	{
		name: "churn-flashcrowd",
		why:  "same overlay used differently: partner-index writes, join storm, scenario actions, tail-drop, retransmits and backoff",
		build: func(seed int64, smoke bool) (*childInput, error) {
			return runWorkload(runInput{App: "PPLive", Seed: seed, Duration: study.Duration(churnDuration), JoinWindow: study.Duration(churnJoin), QueueDepth: 2}, "flashcrowd", smoke)
		},
	},
	{
		name:       "study-grid",
		why:        "24 short cells on 2 workers: per-cell set-up, runner fan-out, straggler tail, summarize and render",
		twoWorkers: true,
		build:      func(seed int64, smoke bool) (*childInput, error) { return gridWorkload("study", seed, smoke) },
	},
	{
		name:       "fleet-grid",
		why:        "the study-grid cells through coordinator, 2 loopback workers, dashboard and 2 SSE subscribers: the difference is protocol cost",
		twoWorkers: true,
		build:      func(seed int64, smoke bool) (*childInput, error) { return gridWorkload("fleet", seed, smoke) },
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// worldSeed is the population every single-run workload simulates. The
// draw of ASes, links and NAT flags moves host time per event by up to 7 %
// between worlds at an equal event count — cost that belongs to the input,
// not to the simulator — so the seed varies the simulation (arrival order,
// every peer's choices) over one fixed, default-seeded world.
const worldSeed = 1

func runWorkload(in runInput, scn string, smoke bool) (*childInput, error) {
	in.WorldSeed = worldSeed
	if smoke {
		in.Peers = smokePeers
		in.Duration = study.Duration(smokeDuration)
		in.JoinWindow = in.Duration / 2
	}
	if scn != "" {
		spec, err := scenario.ByName(scn)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := scenario.Encode(&buf, spec); err != nil {
			return nil, err
		}
		in.Scenario = buf.Bytes()
	}
	return &childInput{Kind: "run", Run: &in}, nil
}

// gridWorkload is the 24-cell study both grid workloads run: identical
// bytes, so fleet-grid minus study-grid is the fleet's own cost.
func gridWorkload(kind string, seed int64, smoke bool) (*childInput, error) {
	st := &study.Study{
		Name:       "bench-grid",
		Apps:       []string{"PPLive", "SopCast", "TVAnts"},
		Strategies: []string{"urgent-random", "latest-useful", "rarest", "deadline"},
		Scenarios:  []study.Scenario{{Name: "steady"}},
		Seeds:      []int64{seed, seed + 1},
		Duration:   study.Duration(gridDuration),
	}
	if smoke {
		st.Peers = smokePeers
		st.Duration = study.Duration(smokeDuration)
	}
	var buf bytes.Buffer
	if err := study.Encode(&buf, st); err != nil {
		return nil, err
	}
	return &childInput{Kind: kind, Study: buf.Bytes()}, nil
}
