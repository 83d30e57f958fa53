package overlay_test

import (
	"slices"
	"testing"
	"time"

	"napawine/internal/apps"
	"napawine/internal/chunkstream"
	"napawine/internal/experiment"
	"napawine/internal/overlay"
	"napawine/internal/packet"
	"napawine/internal/sim"
	"napawine/internal/sniffer"
	"napawine/internal/units"
	"napawine/internal/world"
)

// stageBound is the most records a probe may stage during the two-minute
// PPLive run. Drained only by the run's 10 s flush, its busiest probe staged
// 5,062 at once; draining itself, 582.
const stageBound = 2048

// pplive2mEvents is the event count experiment.Run reports for the default
// two-minute PPLive run (bench/expected.json's single-pplive): matching it
// shows this is that run.
const pplive2mEvents = 1_049_608

// TestProbeStageStaysInFlight builds the swarm of a default two-minute
// PPLive experiment — the world, profile, arrival schedule and 10 s flush
// experiment.Run sets up, on the serial engine — and watches every probe's
// stage. A consumer runs inside a drain, while the stage still holds all it
// held when the drain began, and between drains the stage only grows, so the
// largest length a consumer sees is the stage's high-water mark.
func TestProbeStageStaysInFlight(t *testing.T) {
	cfg := experiment.Default("PPLive")
	cfg.Duration = 2 * time.Minute
	w, err := world.Build(cfg.World)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := apps.ByName(cfg.App)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(cfg.Seed)
	net := overlay.New(eng, w.Topo, overlay.Config{
		Calendar:      chunkstream.NewCalendar(apps.StreamRate, 48*units.KB),
		BufferWindow:  cfg.BufferWindow,
		TrackerBatch:  cfg.TrackerBatch,
		JitterMax:     cfg.JitterMax,
		UplinkBusyCap: cfg.UplinkBusyCap,
	})
	source := net.AddSource(w.SourceHost, w.SourceLink, prof)
	probes := make([]*overlay.Node, len(w.Probes))
	high := make([]int, len(w.Probes))
	for i, p := range w.Probes {
		nd := net.AddNode(p.Host, p.Link, prof)
		probes[i] = nd
		net.AttachSniffer(nd).Attach(sniffer.ConsumerFunc(func(packet.Record) {
			high[i] = max(high[i], overlay.StagedAt(nd))
		}))
	}
	background := make([]*overlay.Node, len(w.Background))
	for i, bg := range w.Background {
		background[i] = net.AddNode(bg.Host, bg.Link, prof)
	}
	// Arrivals as experiment.Run draws them: probes within 20 s, background
	// peers churning with 150 s sessions (four times that on fast links)
	// and 40 s absences.
	source.ScheduleJoin(0)
	rng := eng.Rand()
	for _, nd := range probes {
		nd.ScheduleJoin(time.Duration(rng.Int63n(int64(20 * time.Second))))
	}
	for _, nd := range background {
		first := time.Duration(rng.Int63n(int64(cfg.BackgroundJoinWindow)))
		meanOn := 150 * time.Second
		if nd.Link.HighBandwidth() {
			meanOn *= 4
		}
		nd.ScheduleChurn(first, meanOn, 40*time.Second)
	}
	eng.Every(10*time.Second, 10*time.Second, net.FlushCapturesBefore)
	eng.Run(cfg.Duration)
	net.FlushCaptures()

	if got := eng.Processed(); got != pplive2mEvents {
		t.Fatalf("%d events, experiment.Run's run has %d: the set-up here no longer matches it", got, pplive2mEvents)
	}
	worst := slices.Max(high)
	t.Logf("stage high-water over %d probes: max %d", len(high), worst)
	if worst == 0 {
		t.Fatal("no probe captured anything")
	}
	for i, h := range high {
		if h > stageBound {
			t.Errorf("probe %s staged %d records at once, bound %d", w.Probes[i].Label, h, stageBound)
		}
	}
}
