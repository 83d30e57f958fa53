package napawine_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"napawine"
	"napawine/internal/golden"
	"napawine/internal/study"
)

// The golden battery: every table and figure of a three-app seed-4242 run
// at miniature scale, pinned in testdata/golden-battery.txt. Any hot-path
// change that perturbs the event or RNG sequence — a reordered iteration,
// an extra draw, a float computed differently — lands here as a moved line
// of the paper's tables instead of as a silent drift. Re-pin (-update, and
// goldenEvents by hand) only for a change that *intends* to alter
// simulation output, and say so in the commit.
const goldenEvents = 237686

func TestGoldenMiniBatteryDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden battery simulates three full swarms; skipped under -short")
	}
	results, err := napawine.RunAll(&napawine.Study{
		Name:       "golden",
		BaseSeed:   4242,
		Duration:   napawine.StudyDuration(90 * time.Second),
		PeerFactor: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	for _, r := range results {
		events += r.Events
	}
	if events != goldenEvents {
		t.Errorf("event count drifted: got %d, want %d — the refactor changed the event sequence", events, goldenEvents)
	}
	buf := renderTables(t, napawine.TableII(results), napawine.TableIII(results), napawine.TableIV(results))
	if err := errors.Join(napawine.RenderFigure1(buf, results), napawine.RenderFigure2(buf, results)); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden-battery.txt", buf.Bytes())
}

// TestScenarioGoldenDigest: a seed-1717 TVAnts flashcrowd run at miniature
// scale, every table plus the per-bucket time series, pinned in
// testdata/scenario-golden.txt. This is the byte-order guard for the
// scenario codec/refactor work: a change to event compilation order, RNG
// consumption, or series sampling lands here as a moved line instead of as
// silent drift of the dynamic-workload numbers. Re-pin only for a change
// that *intends* to alter scenario output, and say so in the commit.
func TestScenarioGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario run simulates a full swarm; skipped under -short")
	}
	results, err := napawine.RunAll(&napawine.Study{
		Name:       "golden",
		BaseSeed:   1717,
		Duration:   napawine.StudyDuration(60 * time.Second),
		PeerFactor: 0.1,
		Apps:       []string{napawine.TVAnts},
		Scenarios:  []study.Scenario{{Name: "flashcrowd"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := renderTables(t, napawine.TableII(results), napawine.TableIII(results), napawine.TableIV(results),
		napawine.SeriesTable(results))
	golden.Check(t, "testdata/scenario-golden.txt", buf.Bytes())
}

// renderTables renders tabs one after another.
func renderTables(t *testing.T, tabs ...*napawine.Table) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	for _, tab := range tabs {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}
