package napawine_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"napawine"
	"napawine/internal/study"
)

// TestStudyFileMatchesRegistered pins the shipped study artifacts to the
// registry: examples/studies/<name>.json must be byte-for-byte what
// study.Encode writes for the registered study of the same name, and decode
// back to the identical grid. With the executor fully deterministic (see
// the study package's cross-worker test), spec identity is run identity.
func TestStudyFileMatchesRegistered(t *testing.T) {
	for _, name := range study.Names() {
		loaded, err := study.LoadFile("examples/studies/" + name + ".json")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reg, err := napawine.StudyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var fromFile, fromReg bytes.Buffer
		if err := study.Encode(&fromFile, loaded); err != nil {
			t.Fatal(err)
		}
		if err := study.Encode(&fromReg, reg); err != nil {
			t.Fatal(err)
		}
		if fromFile.String() != fromReg.String() {
			t.Errorf("%s: examples/studies/%s.json differs from the registered study:\n--- file ---\n%s\n--- registry ---\n%s",
				name, name, fromFile.String(), fromReg.String())
		}
	}
}

// scaleDown shrinks a study to test size without touching its axes.
func scaleDown(st *napawine.Study) {
	st.Duration = napawine.StudyDuration(20 * time.Second)
	st.Seeds = nil
	st.Trials = 1
	st.PeerFactor = 0.05
	st.Apps = []string{napawine.TVAnts}
}

// TestStrategyComparisonArtifact runs the headline study (scaled down) end
// to end through the facade twice — once from the registry, once from the
// shipped JSON file — and requires byte-identical comparison tables that
// actually contrast all four strategies on continuity, source load and
// diffusion delay.
func TestStrategyComparisonArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("study battery simulates four swarms; skipped under -short")
	}
	render := func(st *napawine.Study) string {
		scaleDown(st)
		res, err := napawine.RunStudy(context.Background(), st, napawine.WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.ComparisonTable().Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	reg, err := napawine.StudyByName("strategy-comparison")
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := study.LoadFile("examples/studies/strategy-comparison.json")
	if err != nil {
		t.Fatal(err)
	}
	a, b := render(reg), render(fromFile)
	if a != b {
		t.Errorf("file-authored study diverged from the registered run:\n--- registry ---\n%s\n--- file ---\n%s", a, b)
	}
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
