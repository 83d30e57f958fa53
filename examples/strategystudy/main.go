// Strategystudy: run the registered strategy-comparison study — the
// Mathieu–Perino chunk-scheduling space replayed per application — scaled
// down to example size, with live progress from a study Observer, and pivot
// the results two ways.
//
//	go run ./examples/strategystudy
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"napawine"
)

// ticker is a minimal study Observer: one line per finished run. Observer
// callbacks fire concurrently from worker goroutines, so it counts with an
// atomic instead of assuming order.
type ticker struct{ done atomic.Int64 }

func (t *ticker) OnRunStart(napawine.StudyRunInfo) {}

func (t *ticker) OnRunDone(info napawine.StudyRunInfo, sum napawine.RunSummary, err error) {
	n := t.done.Add(1)
	if err != nil {
		fmt.Printf("  [%d/%d] %s failed: %v\n", n, info.Total, info.Label(), err)
		return
	}
	fmt.Printf("  [%d/%d] %s: continuity %.3f, source %.0f kbps, diffusion %.2fs\n",
		n, info.Total, info.Label(), sum.MeanContinuity, sum.SourceKbps, sum.DiffusionDelayS)
}

func (t *ticker) OnSample(napawine.StudyRunInfo, napawine.SeriesSample) {}

func main() {
	// Start from the registered study (decoded from
	// internal/study/specs/strategy-comparison.json) and shrink it to
	// example scale: the axes stay, the swarms get small.
	st, err := napawine.StudyByName("strategy-comparison")
	if err != nil {
		log.Fatal(err)
	}
	st.Duration = napawine.StudyDuration(45 * time.Second)
	st.Trials = 2
	st.PeerFactor = 0.1

	fmt.Printf("study %q: %d runs (%d apps × %d strategies × %d seeds)\n",
		st.Name, st.Runs(), len(st.AppList()), len(st.StrategyList()), len(st.SeedList()))
	start := time.Now()
	res, err := napawine.RunStudy(context.Background(), st, napawine.WithObserver(&ticker{}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	// The headline artifact: continuity, source load and diffusion delay
	// contrasted across every (app, strategy) pair.
	if err := res.ComparisonTable().Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// The same results pivot along any axis: here diffusion delay as
	// strategies × apps.
	delay, err := napawine.StudyMetricByKey("diffusion-delay")
	if err != nil {
		log.Fatal(err)
	}
	if err := res.PivotTable(delay, napawine.AxisStrategy, napawine.AxisApp).Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nReading the table: latest-useful diffuses newest chunks fastest at")
	fmt.Println("deadline risk; deadline-first chases continuity and leans on the")
	fmt.Println("source; urgent-random (every 2008 client's choice) splits the")
	fmt.Println("difference. Full scale: go run ./cmd/napawine -study strategy-comparison")
}
