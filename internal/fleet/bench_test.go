package fleet

import (
	"context"
	"net/http"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/study"
)

// BenchmarkWorkerRoundTrips times the three calls a worker makes for a
// cell, each through worker.call (body encoding, loopback HTTP, strict reply
// decoding) against a live coordinator: a lease, one sample event on it and
// the cell's result. Every iteration leases a fresh cell. It reports each
// call's mean in µs, beside the benchmark module's fleet.lease_rtt_us,
// fleet.event_rtt_us and fleet.result_rtt_us kernels.
//
//	go test ./internal/fleet -run=NONE -bench=WorkerRoundTrips
func BenchmarkWorkerRoundTrips(b *testing.B) {
	st := &study.Study{Name: "bench-rtt", Apps: []string{"TVAnts"}, Trials: b.N, Duration: study.Duration(time.Second)}
	coord, err := NewCoordinator(CoordinatorConfig{Study: st, Addr: "127.0.0.1:0", LeaseTTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	w := &worker{
		cfg:    WorkerConfig{Addr: coord.Addr(), Name: "bench"},
		base:   "http://" + coord.Addr() + "/fleet/v1",
		client: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()},
		log:    b.Logf,
	}
	defer w.client.CloseIdleConnections()
	ctx := context.Background()
	sample := experiment.SeriesSample{T: 5 * time.Second, Online: 240, Continuity: 0.99, IntraASPct: 12, IntraASValid: true, VideoKbps: 90_000, TrackerUp: true}
	sum := experiment.Summary{App: "TVAnts", Seed: 1, MeanContinuity: 0.99, TableIV: make([]experiment.SummaryCell, 5)}
	var lease, event, result time.Duration
	b.ResetTimer()
	for range b.N {
		t0 := time.Now()
		var rep leaseReply
		if err := w.call(ctx, http.MethodPost, "lease", leaseRequest{Worker: "bench"}, &rep); err != nil || rep.Status != StatusLease {
			b.Fatalf("lease: %+v, %v", rep, err)
		}
		t1 := time.Now()
		if err := w.call(ctx, http.MethodPost, "event", eventPost{Worker: "bench", Index: rep.Index, Kind: eventSample, Sample: &sample}, &okReply{}); err != nil {
			b.Fatalf("event: %v", err)
		}
		t2 := time.Now()
		if err := w.call(ctx, http.MethodPost, "result", resultPost{Worker: "bench", Index: rep.Index, Digest: rep.Digest, Summary: &sum}, &okReply{}); err != nil {
			b.Fatalf("result: %v", err)
		}
		lease, event, result = lease+t1.Sub(t0), event+t2.Sub(t1), result+time.Since(t2)
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(us(lease), "lease-us")
	b.ReportMetric(us(event), "event-us")
	b.ReportMetric(us(result), "result-us")
}
