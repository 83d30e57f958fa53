package overlay

import (
	"reflect"
	"slices"
	"testing"
)

// TestLedgerGrowAndMerge pins the dense per-peer columns: grow covers ids
// below n with zeros and never shrinks or disturbs what is there, merge
// adds element-wise whichever side is longer.
func TestLedgerGrowAndMerge(t *testing.T) {
	// full builds a ledger whose two per-peer columns, VideoRx and VideoTx,
	// both hold the given rows.
	full := func(rows ...int64) *Ledger {
		l := newLedger()
		l.grow(len(rows))
		copy(l.VideoRx, rows)
		copy(l.VideoTx, rows)
		return l
	}
	for _, tc := range []struct {
		name     string
		dst, src *Ledger
		want     []int64 // VideoRx and VideoTx of dst after dst.merge(src)
	}{
		{"equal length", full(1, 2, 3), full(10, 20, 30), []int64{11, 22, 33}},
		{"src longer", full(1), full(10, 20, 30), []int64{11, 20, 30}},
		{"src shorter", full(1, 2, 3), full(10), []int64{11, 2, 3}},
		{"fresh dst", newLedger(), full(0, 5), []int64{0, 5}},
		{"empty src", full(1, 2), newLedger(), []int64{1, 2}},
	} {
		tc.src.SignalTotal = 7
		tc.dst.merge(tc.src)
		if !slices.Equal(tc.dst.VideoRx, tc.want) || !slices.Equal(tc.dst.VideoTx, tc.want) {
			t.Errorf("%s: VideoRx %v, VideoTx %v, want %v", tc.name, tc.dst.VideoRx, tc.dst.VideoTx, tc.want)
		}
		for i, col := range tc.dst.peerColumns() {
			if len(*col) != len(tc.want) {
				t.Errorf("%s: column %d has %d rows, want %d", tc.name, i, len(*col), len(tc.want))
			}
		}
		if tc.dst.SignalTotal != 7 {
			t.Errorf("%s: scalar totals not merged", tc.name)
		}
	}

	l := full(4, 5)
	l.grow(1)
	if !slices.Equal(l.VideoRx, []int64{4, 5}) {
		t.Errorf("grow below the current length changed the column: %v", l.VideoRx)
	}
	l.grow(4)
	if !slices.Equal(l.VideoRx, []int64{4, 5, 0, 0}) {
		t.Errorf("grow(4) = %v, want the old rows then zeros", l.VideoRx)
	}
}

// TestLedgerMergeCoversEveryField: merging a ledger into a fresh one gives
// it back field for field. The source sets every field, so a field that
// merge forgets shows here. A one-shard network's view is its live ledger,
// not a merged copy.
func TestLedgerMergeCoversEveryField(t *testing.T) {
	src := newLedger()
	src.grow(2)
	src.VideoRx[1], src.VideoTx[0] = 3, 4
	src.SignalTotal, src.ChunksServedTotal, src.DropsTotal, src.RetransmitsTotal, src.BackoffsTotal = 1, 2, 3, 4, 5
	src.VideoTotal, src.VideoIntraAS, src.DiffusionDelaySum, src.DiffusionChunks, src.SourceVideoTx = 6, 7, 8, 9, 10
	src.VideoRxByAS[64512], src.VideoIntraByAS[64512] = 11, 12
	v := reflect.ValueOf(src).Elem()
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Fatalf("the source leaves Ledger.%s zero", v.Type().Field(i).Name)
		}
	}
	dst := newLedger()
	dst.merge(src)
	if !reflect.DeepEqual(dst, src) {
		t.Errorf("merged into a fresh ledger:\n%+v\nfrom\n%+v", dst, src)
	}
	w := buildWorld(t, 3, 1, 0)
	if w.net.LedgerView() != w.net.shards[0].ledger {
		t.Error("a one-shard network's view is not its live ledger")
	}
}
