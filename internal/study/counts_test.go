package study

import (
	"context"
	"testing"
	"time"

	"napawine/internal/experiment"
)

// TestCaptureCountsAreExact: the capture layer's work counts (records staged,
// slots moved by the spools' insertion pass, fallback sorts, aggregator row
// blocks) are a function of the run's seed and configuration, like its
// output: two runs of the two-minute seed-1 PPLive experiment count alike,
// and so does each cell of a two-cell study whether one worker runs both or
// two run one each. The counts of the two-minute run are logged; CHANGES.md
// records them.
func TestCaptureCountsAreExact(t *testing.T) {
	type counts struct {
		staged, moved, fallbacks uint64
		blocks                   int
	}
	of := func(r *experiment.Result) counts {
		return counts{r.Capture.Staged, r.Capture.Moved, r.Capture.Fallbacks, r.RowBlocks}
	}
	run := func() counts {
		cfg := experiment.Default("PPLive")
		cfg.Duration = 2 * time.Minute
		r, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return of(r)
	}
	first, second := run(), run()
	t.Logf("PPLive, 2 min, seed 1: %d records staged, %d slots moved by the insertion pass, %d fallback sorts, %d row blocks",
		first.staged, first.moved, first.fallbacks, first.blocks)
	if first != second {
		t.Errorf("two runs counted %+v and %+v", first, second)
	}
	if first.staged == 0 || first.moved == 0 || first.blocks == 0 {
		t.Errorf("a run counted %+v: the capture did no work", first)
	}

	st := &Study{
		Name:       "counts",
		Apps:       []string{"PPLive"},
		Seeds:      []int64{1, 2},
		Duration:   Duration(30 * time.Second),
		PeerFactor: 0.2,
	}
	cells := func(workers int) []counts {
		res, err := Run(context.Background(), st, WithWorkers(workers), WithFullResults())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]counts, len(res.Full))
		for i, r := range res.Full {
			out[i] = of(r)
		}
		return out
	}
	one, two := cells(1), cells(2)
	for i := range one {
		t.Logf("study cell %d: %+v", i, one[i])
		if one[i] != two[i] {
			t.Errorf("cell %d counted %+v on one worker and %+v on two", i, one[i], two[i])
		}
	}
}
