package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"napawine/internal/stats"
)

func addr(i int) [4]byte {
	return [4]byte{10, byte(i >> 8), byte(i), 1}
}

// mkObs builds a download contributor with the given properties.
func mkObs(i int, downBytes int64, sameAS bool, ipg time.Duration, hops int) Observation {
	return Observation{
		Probe:     addr(0),
		Peer:      addr(i + 1),
		VideoDown: downBytes,
		TotalDown: downBytes,
		MinIPG:    ipg,
		Hops:      int32(hops),
		SameAS:    sameAS,
	}
}

var th = ContribThresholds{MinBytes: 1000}

func TestComputeASPartition(t *testing.T) {
	obs := []Observation{
		mkObs(1, 70_000, true, time.Microsecond, 3),   // same AS, many bytes
		mkObs(2, 10_000, false, time.Microsecond, 20), // other AS
		mkObs(3, 10_000, false, time.Microsecond, 20),
		mkObs(4, 10_000, false, time.Microsecond, 20),
	}
	m := Compute(obs, Download, ASClassifier{}, th, false)
	if m.PeersPreferred != 1 || m.PeersOther != 3 {
		t.Fatalf("peers = %d/%d", m.PeersPreferred, m.PeersOther)
	}
	if m.PeerPct != 25 {
		t.Errorf("P = %v, want 25", m.PeerPct)
	}
	if m.BytePct != 70 {
		t.Errorf("B = %v, want 70", m.BytePct)
	}
	if !m.Valid() {
		t.Error("metrics should be valid")
	}
}

func TestComputeDirections(t *testing.T) {
	o := Observation{
		Probe: addr(0), Peer: addr(1),
		VideoUp: 50_000, VideoDown: 0,
		SameAS: true, Hops: 5, MinIPG: time.Microsecond,
	}
	// Upload direction: o is a contributor.
	mu := Compute([]Observation{o}, Upload, ASClassifier{}, th, false)
	if mu.PeersPreferred != 1 || mu.BytesPreferred != 50_000 {
		t.Errorf("upload metrics wrong: %+v", mu)
	}
	// Download direction: not a contributor (no down bytes).
	md := Compute([]Observation{o}, Download, ASClassifier{}, th, false)
	if md.Valid() {
		t.Error("download metrics should be empty for upload-only peer")
	}
}

func TestComputeExcludesProbes(t *testing.T) {
	obs := []Observation{
		mkObs(1, 50_000, true, time.Microsecond, 2),
		mkObs(2, 50_000, false, time.Microsecond, 25),
	}
	obs[0].PeerIsProbe = true
	full := Compute(obs, Download, ASClassifier{}, th, false)
	if full.PeersPreferred != 1 || full.PeersOther != 1 {
		t.Fatalf("full set wrong: %+v", full)
	}
	prime := Compute(obs, Download, ASClassifier{}, th, true)
	if prime.PeersPreferred != 0 || prime.PeersOther != 1 {
		t.Fatalf("primed set wrong: %+v", prime)
	}
	if !prime.ExcludeProbes {
		t.Error("primed flag lost")
	}
}

func TestBWClassifier(t *testing.T) {
	c := NewBWClassifier()
	if pref, ok := c.Classify(Observation{MinIPG: 100 * time.Microsecond}); !ok || !pref {
		t.Error("100µs IPG must classify high-bw")
	}
	if pref, ok := c.Classify(Observation{MinIPG: time.Millisecond}); !ok || pref {
		t.Error("exactly 1ms must classify low-bw (strict threshold)")
	}
	if pref, ok := c.Classify(Observation{MinIPG: 20 * time.Millisecond}); !ok || pref {
		t.Error("20ms IPG must classify low-bw")
	}
	if _, ok := c.Classify(Observation{MinIPG: 0}); ok {
		t.Error("zero IPG must be unmeasurable")
	}
}

func TestBWUnmeasurableOmitted(t *testing.T) {
	// Upload contributors with no received trains: BW must be fully
	// unmeasurable, like the dashes in the paper's upload BW cells.
	obs := []Observation{
		{Probe: addr(0), Peer: addr(1), VideoUp: 90_000, MinIPG: 0, Hops: -1},
		{Probe: addr(0), Peer: addr(2), VideoUp: 80_000, MinIPG: 0, Hops: -1},
	}
	m := Compute(obs, Upload, NewBWClassifier(), th, false)
	if m.Valid() {
		t.Error("all-unmeasurable metrics must be invalid")
	}
	if m.Unmeasurable != 2 {
		t.Errorf("unmeasurable = %d, want 2", m.Unmeasurable)
	}
}

func TestHOPClassifier(t *testing.T) {
	c := NewHOPClassifier()
	if pref, ok := c.Classify(Observation{Hops: 5}); !ok || !pref {
		t.Error("5 hops must be preferred")
	}
	if pref, ok := c.Classify(Observation{Hops: 19}); !ok || pref {
		t.Error("19 hops must not be preferred (strict <)")
	}
	if _, ok := c.Classify(Observation{Hops: -1}); ok {
		t.Error("negative hops must be unmeasurable")
	}
}

func TestNETAndCCClassifiers(t *testing.T) {
	if pref, _ := (NETClassifier{}).Classify(Observation{SameSubnet: true}); !pref {
		t.Error("same subnet must be preferred")
	}
	if pref, _ := (CCClassifier{}).Classify(Observation{SameCC: true}); !pref {
		t.Error("same country must be preferred")
	}
}

func TestPaperClassifiersOrder(t *testing.T) {
	names := []string{"BW", "AS", "CC", "NET", "HOP"}
	cs := PaperClassifiers()
	if len(cs) != len(names) {
		t.Fatalf("classifiers = %d", len(cs))
	}
	for i, c := range cs {
		if c.Name() != names[i] {
			t.Errorf("classifier %d = %s, want %s", i, c.Name(), names[i])
		}
	}
}

// Property: complementarity — for any observation set and any two-way
// classifier without unmeasurables, P(X_P) + P(X_P̄) = 100 and likewise for
// bytes; and P/B are unit-free (scaling all byte counts leaves B fixed).
func TestPartitionComplementarityProperty(t *testing.T) {
	type flippedAS struct{ inner ASClassifier }
	flip := classifierFunc{
		name: "notAS",
		fn: func(o Observation) (bool, bool) {
			p, ok := flippedAS{}.inner.Classify(o)
			return !p, ok
		},
	}
	f := func(seeds []uint32, scale uint8) bool {
		rng := rand.New(rand.NewSource(int64(len(seeds)) + int64(scale)))
		obs := make([]Observation, 0, len(seeds))
		for i := range seeds {
			obs = append(obs, mkObs(i, 1000+int64(rng.Intn(100_000)), rng.Intn(2) == 0,
				time.Duration(1+rng.Intn(3_000_000)), rng.Intn(30)))
		}
		a := Compute(obs, Download, ASClassifier{}, th, false)
		b := Compute(obs, Download, flip, th, false)
		if a.PeersPreferred != b.PeersOther || a.PeersOther != b.PeersPreferred {
			return false
		}
		if len(obs) > 0 && math.Abs((a.PeerPct+b.PeerPct)-100) > 1e-9 {
			return false
		}
		if len(obs) > 0 && math.Abs((a.BytePct+b.BytePct)-100) > 1e-9 {
			return false
		}
		// Scale-freeness: multiplying every byte count by k keeps B.
		k := int64(scale%7) + 2
		scaled := make([]Observation, len(obs))
		for i, o := range obs {
			o.VideoDown *= k
			scaled[i] = o
		}
		c := Compute(scaled, Download, ASClassifier{}, th, false)
		return math.Abs(c.BytePct-a.BytePct) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

type classifierFunc struct {
	name string
	fn   func(Observation) (bool, bool)
}

func (c classifierFunc) Name() string                        { return c.name }
func (c classifierFunc) Classify(o Observation) (bool, bool) { return c.fn(o) }

func TestContributorThresholds(t *testing.T) {
	o := Observation{VideoDown: 999, VideoUp: 1001}
	if Contributor(o, Download, th) {
		t.Error("999 bytes below 1000 threshold")
	}
	if !Contributor(o, Upload, th) {
		t.Error("1001 bytes above threshold")
	}
}

func TestComputeSelfBias(t *testing.T) {
	obs := []Observation{
		// Probe peer: contributor, 100k video.
		{Probe: addr(0), Peer: addr(1), VideoDown: 100_000, TotalDown: 110_000, PeerIsProbe: true},
		// Non-probe contributor, 100k video.
		{Probe: addr(0), Peer: addr(2), VideoDown: 100_000, TotalDown: 105_000},
		// Non-probe non-contributor (signaling only).
		{Probe: addr(0), Peer: addr(3), TotalDown: 500},
	}
	contrib := ComputeSelfBias(obs, th, true)
	if contrib.Peers != 2 {
		t.Fatalf("contributor population = %d, want 2", contrib.Peers)
	}
	if contrib.PeerPct != 50 || contrib.BytePct != 50 {
		t.Errorf("contributor self-bias = %.1f/%.1f, want 50/50", contrib.PeerPct, contrib.BytePct)
	}
	all := ComputeSelfBias(obs, th, false)
	if all.Peers != 3 {
		t.Fatalf("all-peers population = %d, want 3", all.Peers)
	}
	wantByte := 100.0 * 110_000 / 215_500
	if math.Abs(all.BytePct-wantByte) > 1e-9 {
		t.Errorf("all-peers byte bias = %v, want %v", all.BytePct, wantByte)
	}
}

// sampleMedian is the reference HopMedian must agree with: every measurable
// hop count into a stats.Sample, and its nearest-rank median.
func sampleMedian(obs []Observation) (float64, bool) {
	var s stats.Sample
	for _, o := range obs {
		if o.Hops >= 0 {
			s.Add(float64(o.Hops))
		}
	}
	if s.N() == 0 {
		return 0, false
	}
	return s.Median(), true
}

func hopObs(hops ...int32) []Observation {
	obs := make([]Observation, len(hops))
	for i, h := range hops {
		obs[i].Hops = h
	}
	return obs
}

func TestHopMedian(t *testing.T) {
	for _, tc := range []struct {
		name string
		hops []int32
		want float64
		ok   bool
	}{
		{"empty", nil, 0, false},
		{"all unmeasurable", []int32{-1, -1, -7}, 0, false},
		{"one", []int32{19}, 19, true},
		{"odd n", []int32{25, 10, 19}, 19, true},
		{"even n takes the lower middle", []int32{25, 10, 19, 30}, 19, true},
		{"unmeasurable left out", []int32{10, 19, 25, -1}, 19, true},
		{"ties", []int32{7, 7, 7, 3, 9, 7}, 7, true},
		{"ties at the rank boundary", []int32{2, 2, 5, 5}, 2, true},
		{"zero hops", []int32{0, 0, 0, 1}, 0, true},
		{"above 128", []int32{200, 129, 1000, 5}, 129, true},
		{"far apart", []int32{0, 1 << 30, 1<<31 - 1}, 1 << 30, true},
	} {
		obs := hopObs(tc.hops...)
		med, ok := HopMedian(obs)
		if med != tc.want || ok != tc.ok {
			t.Errorf("%s: HopMedian = %v/%v, want %v/%v", tc.name, med, ok, tc.want, tc.ok)
		}
		if refMed, refOK := sampleMedian(obs); med != refMed || ok != refOK {
			t.Errorf("%s: HopMedian = %v/%v, stats.Sample says %v/%v", tc.name, med, ok, refMed, refOK)
		}
	}
}

// TestHopMedianAllocatesNothing: a run's median reads the observation table
// in place, holding no second copy of its hop counts.
func TestHopMedianAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	obs := make([]Observation, 30_000)
	for i := range obs {
		obs[i].Hops = int32(rng.Intn(140) - 5)
	}
	if allocs := testing.AllocsPerRun(10, func() { HopMedian(obs) }); allocs != 0 {
		t.Errorf("HopMedian allocates %v times per call, want 0", allocs)
	}
}

// FuzzHopMedian: over any hop counts — negative ones unmeasurable, values
// past 128 included — HopMedian agrees with stats.Sample's median, and does
// not depend on the rows' order.
func FuzzHopMedian(f *testing.F) {
	f.Add([]byte{10, 0, 19, 0, 25, 0, 0xff, 0xff})
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{0x00, 0x01, 0x90, 0x00, 7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hops []int32
		for i := 0; i+1 < len(data); i += 2 {
			hops = append(hops, int32(int16(uint16(data[i])|uint16(data[i+1])<<8)))
		}
		obs := hopObs(hops...)
		med, ok := HopMedian(obs)
		if refMed, refOK := sampleMedian(obs); med != refMed || ok != refOK {
			t.Fatalf("hops %v: HopMedian = %v/%v, stats.Sample says %v/%v", hops, med, ok, refMed, refOK)
		}
		slices.Reverse(obs)
		if rmed, rok := HopMedian(obs); rmed != med || rok != ok {
			t.Fatalf("hops %v: reversed rows give %v/%v, not %v/%v", hops, rmed, rok, med, ok)
		}
	})
}

func TestDirectionString(t *testing.T) {
	if Upload.String() != "U" || Download.String() != "D" {
		t.Error("direction names wrong")
	}
}

func BenchmarkCompute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	obs := make([]Observation, 5000)
	for i := range obs {
		obs[i] = mkObs(i, int64(rng.Intn(1_000_000)), rng.Intn(10) == 0,
			time.Duration(rng.Intn(5_000_000)), rng.Intn(30))
	}
	cs := PaperClassifiers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(obs, Download, cs[i%len(cs)], DefaultContrib, i%2 == 0)
	}
}
