package napawine_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"napawine"
)

// The golden battery: every table and figure of a three-app seed-4242 run
// at miniature scale, hashed. The digest was captured on main before the
// selection-pipeline refactor; any hot-path change that perturbs the event
// or RNG sequence — a reordered iteration, an extra draw, a float computed
// differently — lands here as a digest mismatch instead of as a silent
// drift of the paper's tables. Update the constants only for a change that
// *intends* to alter simulation output, and say so in the commit.
const (
	goldenDigest = "2546bd16b122687bf0db1b40350c7c83d98d03cfe0e843d0d01c1e9292c650e1"
	goldenEvents = 237686
)

func goldenRender(t testing.TB) (string, uint64) {
	t.Helper()
	results, err := napawine.RunAll(&napawine.Study{
		Name:       "golden",
		BaseSeed:   4242,
		Duration:   napawine.StudyDuration(90 * time.Second),
		PeerFactor: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range []*napawine.Table{
		napawine.TableII(results), napawine.TableIII(results), napawine.TableIV(results),
	} {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := napawine.RenderFigure1(&buf, results); err != nil {
		t.Fatal(err)
	}
	if err := napawine.RenderFigure2(&buf, results); err != nil {
		t.Fatal(err)
	}
	var events uint64
	for _, r := range results {
		events += r.Events
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), events
}

func TestGoldenMiniBatteryDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden battery simulates three full swarms; skipped under -short")
	}
	digest, events := goldenRender(t)
	if events != goldenEvents {
		t.Errorf("event count drifted: got %d, want %d — the refactor changed the event sequence", events, goldenEvents)
	}
	if digest != goldenDigest {
		t.Errorf("table digest drifted:\n got %s\nwant %s\nevery rendered table/figure byte must survive hot-path refactors", digest, goldenDigest)
	}
}
