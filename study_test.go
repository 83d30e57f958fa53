package napawine_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"napawine"
	"napawine/internal/study"
)

// scaleDown shrinks a study to test size without touching its axes.
func scaleDown(st *napawine.Study) {
	st.Duration = napawine.StudyDuration(20 * time.Second)
	st.Seeds = nil
	st.Trials = 1
	st.PeerFactor = 0.05
	st.Apps = []string{napawine.TVAnts}
}

// TestStrategyComparisonArtifact runs the headline study (scaled down) end
// to end through the facade and requires a comparison table that actually
// contrasts all four strategies on continuity, source load and diffusion
// delay.
func TestStrategyComparisonArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("study battery simulates four swarms; skipped under -short")
	}
	st, err := napawine.StudyByName("strategy-comparison")
	if err != nil {
		t.Fatal(err)
	}
	scaleDown(st)
	res, err := napawine.RunStudy(context.Background(), st, napawine.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.ComparisonTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	a := b.String()
	for _, want := range []string{
		"urgent-random", "latest-useful", "rarest", "deadline",
		"Continuity", "Source kbps", "Source share%", "Diffusion s",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("comparison table missing %q:\n%s", want, a)
		}
	}
}

// TestRunStudyPivots exercises the axis pivot through the facade.
func TestRunStudyPivots(t *testing.T) {
	if testing.Short() {
		t.Skip("study battery simulates swarms; skipped under -short")
	}
	st := &napawine.Study{
		Name:       "pivot-test",
		Apps:       []string{napawine.TVAnts},
		Strategies: []string{"urgent-random", "deadline"},
		Seeds:      []int64{3, 4},
		Duration:   napawine.StudyDuration(20 * time.Second),
		PeerFactor: 0.05,
	}
	res, err := napawine.RunStudy(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	m, err := napawine.StudyMetricByKey("continuity")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.PivotTable(m, napawine.AxisStrategy, study.AxisSeed).Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"urgent-random", "deadline", "3", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("pivot table missing %q:\n%s", want, out)
		}
	}
	if got := res.Levels(napawine.AxisStrategy); len(got) != 2 {
		t.Errorf("strategy levels = %v", got)
	}
}

// TestRunStudyCancellationFacade: the facade propagates cancellation and
// returns the partial result, matching the documented contract.
func TestRunStudyCancellationFacade(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := napawine.StudyByName("strategy-comparison")
	if err != nil {
		t.Fatal(err)
	}
	res, err := napawine.RunStudy(ctx, st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Cells) != st.Runs() {
		t.Error("cancelled study did not return its partial (empty) grid")
	}
}
