package napawine_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"napawine"
	"napawine/internal/scenario"
	"napawine/internal/study"
)

// The scenario golden digest: a seed-1717 TVAnts flashcrowd run at
// miniature scale, every table plus the per-bucket time series, hashed.
// This is the byte-order guard for the scenario codec/refactor work: a
// change to event compilation order, RNG consumption, or series sampling
// lands here as a digest mismatch instead of as silent drift of the
// dynamic-workload numbers. Update the constant only for a change that
// *intends* to alter scenario output, and say so in the commit.
const scenarioGoldenDigest = "b7491815c09aa275d7b24c104455ce407f154ca7cb2d56100df46cfa9527dd70"

func scenarioGoldenRender(t testing.TB, spec *scenario.Spec) string {
	t.Helper()
	results, err := napawine.RunAll(&napawine.Study{
		Name:       "golden",
		BaseSeed:   1717,
		Duration:   napawine.StudyDuration(60 * time.Second),
		PeerFactor: 0.1,
		Apps:       []string{napawine.TVAnts},
		Scenarios:  []study.Scenario{{Name: "flashcrowd", Spec: spec}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range []*napawine.Table{
		napawine.TableII(results), napawine.TableIII(results), napawine.TableIV(results),
		napawine.SeriesTable(results),
	} {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

func TestScenarioGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario run simulates a full swarm; skipped under -short")
	}
	digest := scenarioGoldenRender(t, nil)
	if digest != scenarioGoldenDigest {
		t.Errorf("scenario table digest drifted:\n got %s\nwant %s\nevery rendered byte of a scenario run must survive refactors", digest, scenarioGoldenDigest)
	}
}

// TestScenarioGoldenDigestFromFile: the same timeline authored as a JSON
// file must reproduce the registered scenario's run byte-for-byte — the
// codec is a parser, never a different simulation.
func TestScenarioGoldenDigestFromFile(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario run simulates a full swarm; skipped under -short")
	}
	spec, err := napawine.LoadScenarioFile("examples/scenarios/flashcrowd.json")
	if err != nil {
		t.Fatal(err)
	}
	digest := scenarioGoldenRender(t, spec)
	if digest != scenarioGoldenDigest {
		t.Errorf("file-authored flashcrowd diverged from the registered run:\n got %s\nwant %s", digest, scenarioGoldenDigest)
	}
}
