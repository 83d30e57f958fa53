package study

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/golden"
)

// TestCellDigestsArePinned holds the spool's key format to values computed
// before Point existed: three cells of blind-ablation (the first, a blind
// one, the last). A digest that moves orphans every checkpoint written by an
// earlier binary — a -resume would recompute cells it already holds. Change
// a value here only together with a deliberate spool format break.
func TestCellDigestsArePinned(t *testing.T) {
	st, err := ByName("blind-ablation")
	if err != nil {
		t.Fatal(err)
	}
	studyDigest, err := st.Digest()
	if err != nil {
		t.Fatal(err)
	}
	g, err := st.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	infos, digests := g.Infos(), g.CellDigests(studyDigest)
	for _, want := range []struct {
		index         int
		label, digest string
	}{
		{0, "PPLive seed 1", "fb083e12e36ca3621142005dcd08067f1cfcc86359a60fb86470f3aacc1d8b4b"},
		{3, "PPLive/blind seed 1", "15713d48a76fdeab8f5849a461a340f2b35171fd1ccb06a80d8ce361fd1fce79"},
		{17, "TVAnts/blind seed 3", "d71ec6be3ddcccc8f8b92f451d8018978bfbfc702b8b6ee346c85accc8bdfd32"},
	} {
		info := infos[want.index]
		if info.Label() != want.label {
			t.Errorf("cell %d is %q, want %q", want.index, info.Label(), want.label)
		}
		if digests[want.index] != want.digest || CellDigest(studyDigest, info.Point) != want.digest {
			t.Errorf("cell %d (%s) digests %s, pinned %s", want.index, want.label, digests[want.index], want.digest)
		}
	}
	if len(digests) != 18 {
		t.Errorf("blind-ablation resolves to %d cells, want 18 (the last pinned cell must be the last)", len(digests))
	}
}

// shippedStudies returns every registered study, decoded from its file.
func shippedStudies(t *testing.T) map[string]*Study {
	t.Helper()
	out := map[string]*Study{}
	for _, name := range Names() {
		st, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = st
	}
	return out
}

// TestOneCoordinateEverywhere: for every shipped study, the coordinate an
// observer is told (RunInfos) and the one a Result holds (Run) are the same
// Point at every index. Run is
// given a cancelled context — it assembles the whole grid without
// simulating any of it, which is all this needs.
func TestOneCoordinateEverywhere(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, st := range shippedStudies(t) {
		infos, err := st.RunInfos()
		if err != nil {
			t.Fatalf("%s: RunInfos: %v", name, err)
		}
		res, err := Run(cancelled, st)
		if !errors.Is(err, context.Canceled) || res == nil {
			t.Fatalf("%s: cancelled Run returned %v, %v", name, res, err)
		}
		if len(infos) != st.Runs() || len(res.Cells) != len(infos) {
			t.Fatalf("%s: %d infos, %d cells over a %d-cell grid",
				name, len(infos), len(res.Cells), st.Runs())
		}
		for i, info := range infos {
			if info.Index != i || info.Total != len(infos) {
				t.Errorf("%s: info %d carries index %d of %d", name, i, info.Index, info.Total)
			}
			if res.Cells[i].Point != info.Point {
				t.Errorf("%s: cell %d: observers see %+v, the result holds %+v",
					name, i, info.Point, res.Cells[i].Point)
			}
		}
	}
}

// TestResultEncodingIsPinned compares EncodeResult's bytes for a two-cell
// result — every axis non-default, one finished cell with every summary
// field set, one un-run cell — with the file the parent of the Point
// refactor wrote. These bytes are the bench's study-grid and fleet-grid
// digests and every result file on disk.
func TestResultEncodingIsPinned(t *testing.T) {
	st := &Study{Name: "golden-2cell", Apps: []string{"TVAnts"}, Strategies: []string{"rarest"},
		Scenarios: []Scenario{{Name: "flashcrowd"}}, Variants: []Variant{{Name: "blind", Blind: true}},
		QueueDepths: []int{0, 2}, Seeds: []int64{7}, Duration: Duration(30 * time.Second), Peers: 80}
	g, err := st.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Result([]experiment.Summary{fullSummary(), {}}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := EncodeResult(&got, res); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/result-2cell.golden.json", got.Bytes())
}
