package study

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"napawine/internal/core"
	"napawine/internal/experiment"
)

// fullSummary builds a summary with every field populated, so a round trip
// that silently drops a field cannot pass by that field being zero.
func fullSummary() experiment.Summary {
	return experiment.Summary{
		App: "TVAnts", Seed: 7, Scenario: "flashcrowd",
		Series: []experiment.SeriesSample{
			{T: 10 * time.Second, Online: 42, Continuity: 0.875, IntraASPct: 12.5,
				IntraASValid: true, VideoKbps: 433.125, TrackerUp: true,
				PerAS: []experiment.ASSample{
					{AS: 3269, Online: 11, Continuity: 0.9375, IntraPct: 50, IntraValid: true},
					{AS: 12345, Online: 3, Continuity: 0.5},
				}},
			{T: 20 * time.Second, Online: 40, Continuity: 0.8125},
		},
		RxKbpsMean: 410.5, RxKbpsMax: 700.25, TxKbpsMean: 390.75, TxKbpsMax: 650.5,
		AllPeersMean: 80.5, AllPeersMax: 120, ContribRxMean: 20.25, ContribRxMax: 31,
		ContribTxMean: 18.5, ContribTxMax: 29,
		SelfBiasContrib: core.SelfBias{Contributor: true, PeerPct: 1.5, BytePct: 2.25, Peers: 200, Bytes: 1 << 30},
		SelfBiasAll:     core.SelfBias{PeerPct: 0.75, BytePct: 1.125, Peers: 400, Bytes: 2 << 30},
		TableIV: []experiment.SummaryCell{
			{Property: "AS", Vals: [8]float64{50.5, 49.5, 1, 2, 3, 4, 5, 6},
				Valid: [8]bool{true, true, false, true, true, true, true, true}},
		},
		HopMedian: 19, MeanContinuity: 0.84375, Events: 123456, Unlocated: 3,
		SourceKbps: 480.5, SourceSharePct: 6.25, VideoBytes: 3 << 28,
		DiffusionDelayS: 1.375, DiffusionChunks: 9876,
		Drops: 12, Retransmits: 8, Backoffs: 5, ChunksServed: 5000, LossPct: 0.2394,
	}
}

func TestSummaryCodecRoundTrip(t *testing.T) {
	orig := fullSummary()
	var buf bytes.Buffer
	if err := EncodeSummary(&buf, &orig); err != nil {
		t.Fatalf("EncodeSummary: %v", err)
	}
	first := buf.String()
	dec, err := DecodeSummaryBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeSummary: %v", err)
	}
	if !reflect.DeepEqual(*dec, orig) {
		t.Fatalf("summary changed across the codec:\n got %+v\nwant %+v", *dec, orig)
	}
	var buf2 bytes.Buffer
	if err := EncodeSummary(&buf2, dec); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if buf2.String() != first {
		t.Fatalf("summary encoding not bit-stable across a round trip:\n%s\nvs\n%s", first, buf2.String())
	}
}

// TestEncodersRejectWhatHasNoFileForm: nil values, a Result without its
// study and a NaN (JSON has none) are errors, never a partial file.
func TestEncodersRejectWhatHasNoFileForm(t *testing.T) {
	var buf bytes.Buffer
	nan := experiment.Summary{LossPct: math.NaN()}
	for name, err := range map[string]error{
		"nil summary":      EncodeSummary(&buf, nil),
		"NaN summary":      EncodeSummary(&buf, &nan),
		"nil result":       EncodeResult(&buf, nil),
		"result, no study": EncodeResult(&buf, &Result{}),
	} {
		if err == nil {
			t.Errorf("%s encoded", name)
		}
	}
	if err := EncodeResult(&buf, &Result{Study: &Study{Name: "x"}, Cells: []Cell{{Summary: nan}}}); err == nil || !strings.Contains(err.Error(), "encode x result: ") {
		t.Errorf("NaN result: %v", err)
	}
}

func TestSummaryCodecRejectsUnknownFieldAndTrailing(t *testing.T) {
	if _, err := DecodeSummaryBytes([]byte(`{"App":"TVAnts","Bogus":1}`)); err == nil {
		t.Error("unknown summary field accepted")
	}
	if _, err := DecodeSummaryBytes([]byte(`{"App":"TVAnts"} {}`)); err == nil {
		t.Error("trailing data after summary accepted")
	}
}

// tinyStudy is the smallest grid worth running: one app, two seeds.
func tinyStudy() *Study {
	return &Study{
		Name:       "codec-tiny",
		Apps:       []string{"TVAnts"},
		Seeds:      []int64{1, 2},
		Duration:   Duration(15 * time.Second),
		PeerFactor: 0.05,
	}
}

func TestResultCodecRejectsFullResults(t *testing.T) {
	res, err := Run(context.Background(), &Study{
		Name: "codec-full", Apps: []string{"TVAnts"}, Seeds: []int64{1},
		Duration: Duration(10 * time.Second), PeerFactor: 0.05,
	}, WithFullResults())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	err = EncodeResult(&bytes.Buffer{}, res)
	if err == nil || !strings.Contains(err.Error(), "full experiment results") {
		t.Fatalf("EncodeResult accepted full results: %v", err)
	}
}

func TestStudyAndCellDigests(t *testing.T) {
	st := tinyStudy()
	d1, err := st.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	d2, _ := st.Digest()
	if d1 != d2 || len(d1) != 64 {
		t.Fatalf("digest unstable or malformed: %q vs %q", d1, d2)
	}
	other := tinyStudy()
	other.Duration = Duration(16 * time.Second)
	dOther, _ := other.Digest()
	if dOther == d1 {
		t.Fatal("different studies share a digest")
	}
	infos, err := st.RunInfos()
	if err != nil {
		t.Fatalf("RunInfos: %v", err)
	}
	seen := map[string]bool{}
	for _, info := range infos {
		cd := CellDigest(d1, info.Point)
		if len(cd) != 64 || seen[cd] {
			t.Fatalf("cell digest malformed or duplicated: %q", cd)
		}
		seen[cd] = true
		if CellDigest(dOther, info.Point) == cd {
			t.Fatal("cell digest ignores the study digest")
		}
	}
}

// TestShippedStudyDigestsArePinned holds the digest of every registered
// study (decoded from its specs/ file) to the value recorded before the
// lean_ledger field left the codec (it was omitempty, so the canonical
// bytes never carried it). A digest that moves orphans every fleet spool
// and checkpoint written for these studies; change a value here only with a
// study whose grid is meant to change.
func TestShippedStudyDigestsArePinned(t *testing.T) {
	pinned := map[string]string{
		"strategy-comparison": "c8a2100d4b7c5daab5f964ffe14d00e3e7596f88364e8c29542eeceaa66f4477",
		"blind-ablation":      "d578ec719fcc96e839439b34526883fa04e9a85a0725b6280c327763c578fc24",
		"awareness-ablation":  "bbaaaa95fd5f87f3c5fe0200ad998543dd91f2e85cc0b026f60408e9b0f92e74",
	}
	if len(Names()) != len(pinned) {
		t.Errorf("registry holds %v; pin a digest for each", Names())
	}
	for name, want := range pinned {
		st, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := st.Digest(); err != nil || got != want {
			t.Errorf("%s: digest %s, %v; want %s", name, got, err, want)
		}
	}
}

func TestRunCellMatchesRunAndNewResultAssembles(t *testing.T) {
	st := tinyStudy()
	res, err := Run(context.Background(), st)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	g, err := st.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	sums := make([]experiment.Summary, len(res.Cells))
	done := make([]bool, len(res.Cells))
	for i := range res.Cells {
		sum, err := g.RunCell(context.Background(), i, nil)
		if err != nil {
			t.Fatalf("RunCell(%d): %v", i, err)
		}
		if !reflect.DeepEqual(sum, res.Cells[i].Summary) {
			t.Fatalf("RunCell(%d) diverges from Run's summary", i)
		}
		sums[i], done[i] = sum, true
	}
	asm, err := g.Result(sums, done)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var want, got bytes.Buffer
	if err := res.ComparisonTable().Render(&want); err != nil {
		t.Fatal(err)
	}
	if err := asm.ComparisonTable().Render(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("assembled result renders a different table:\n%s\nvs\n%s", want.String(), got.String())
	}
	if _, err := g.RunCell(context.Background(), len(res.Cells), nil); err == nil {
		t.Error("out-of-range cell index accepted")
	}
	if _, err := g.Result(sums[:1], done[:1]); err == nil {
		t.Error("short summary slice accepted")
	}
}

// BenchmarkSummaryCodec is a summary's round trip through a fleet result
// body or a spool checkpoint: EncodeSummary, then DecodeSummaryBytes.
func BenchmarkSummaryCodec(b *testing.B) {
	sum := fullSummary()
	var buf bytes.Buffer
	for b.Loop() {
		buf.Reset()
		if err := EncodeSummary(&buf, &sum); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeSummaryBytes(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}
