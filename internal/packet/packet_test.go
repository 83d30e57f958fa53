package packet

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"napawine/internal/sim"
	"napawine/internal/units"
)

func mkAddr(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			TS:   sim.Time(rng.Int63n(1 << 40)),
			Src:  mkAddr(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(253))),
			Dst:  mkAddr(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(253))),
			Size: units.ByteSize(rng.Int63n(1500)),
			TTL:  uint8(100 + rng.Intn(29)),
			Kind: Kind(rng.Intn(3)),
		}
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	probe := mkAddr(10, 0, 0, 1)
	recs := randomRecords(500, 1)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, probe, "pplive-run-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 500 {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Probe() != probe {
		t.Errorf("Probe = %v", r.Probe())
	}
	if r.Label() != "pplive-run-1" {
		t.Errorf("Label = %q", r.Label())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

// Property: any record survives a binary round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(ts int64, s, d [4]byte, size uint16, ttl uint8, kind uint8) bool {
		if ts < 0 {
			ts = -ts
		}
		rec := Record{
			TS:   sim.Time(ts),
			Src:  netip.AddrFrom4(s),
			Dst:  netip.AddrFrom4(d),
			Size: units.ByteSize(size),
			TTL:  ttl,
			Kind: Kind(kind % 3),
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, mkAddr(10, 0, 0, 1), "p")
		if err != nil {
			return false
		}
		if w.Write(rec) != nil || w.Close() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Next()
		return err == nil && got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, mkAddr(10, 0, 0, 1), "x")
	for _, r := range randomRecords(3, 2) {
		_ = w.Write(r)
	}
	_ = w.Close()
	full := buf.Bytes()

	// Chop mid-record: reader must surface ErrBadTrace, not silent EOF.
	chopped := full[:len(full)-7]
	r, err := NewReader(bytes.NewReader(chopped))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadAll()
	if err == nil {
		t.Fatal("truncated trace should error")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error = %v, want truncation report", err)
	}
}

func TestBadHeader(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("NWT1"),             // missing probe
		[]byte("NWT1\x0a\x00\x00"), // short probe
		append([]byte("NWT1\x0a\x00\x00\x01"), 5), // label length but no label
	}
	for i, raw := range cases {
		if _, err := NewReader(bytes.NewReader(raw)); err == nil {
			t.Errorf("case %d: bad header accepted", i)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, mkAddr(10, 0, 0, 1), "")
	_ = w.Close()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty trace Next = %v, want io.EOF", err)
	}
}

func TestWriterRejectsLongLabel(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, mkAddr(1, 2, 3, 4), strings.Repeat("x", 300)); err == nil {
		t.Error("long label should be rejected")
	}
}

func TestWriterRejectsHugeSize(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, mkAddr(1, 2, 3, 4), "x")
	if err := w.Write(Record{Size: 1 << 40}); err == nil {
		t.Error("oversized record should be rejected")
	}
	// Writer stays poisoned afterwards.
	if err := w.Write(Record{Size: 10}); err == nil {
		t.Error("writer should stay failed after an error")
	}
}

func TestHops(t *testing.T) {
	r := Record{TTL: 128}
	if r.Hops() != 0 {
		t.Errorf("TTL 128 → hops %d, want 0", r.Hops())
	}
	r.TTL = 109
	if r.Hops() != 19 {
		t.Errorf("TTL 109 → hops %d, want 19 (the paper's median threshold)", r.Hops())
	}
}

func TestKindString(t *testing.T) {
	if Signaling.String() != "signaling" || Request.String() != "request" || Video.String() != "video" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include its number")
	}
}

// TestCSVRoundTrip reads WriteCSV's output back with encoding/csv: a header
// row, then one row per record whose six fields are the record's.
func TestCSVRoundTrip(t *testing.T) {
	recs := randomRecords(50, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("WriteCSV output is not CSV: %v", err)
	}
	if header := strings.Join(rows[0], ","); header != "ts_ns,src,dst,size,ttl,kind" {
		t.Fatalf("csv header = %q", header)
	}
	if len(rows)-1 != len(recs) {
		t.Fatalf("csv rows = %d, want %d", len(rows)-1, len(recs))
	}
	for i, row := range rows[1:] {
		r := recs[i]
		want := []string{
			strconv.FormatInt(int64(r.TS), 10), r.Src.String(), r.Dst.String(),
			strconv.FormatInt(int64(r.Size), 10), strconv.Itoa(int(r.TTL)), r.Kind.String(),
		}
		if !slices.Equal(row, want) {
			t.Fatalf("row %d: %v, want %v", i, row, want)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, mkAddr(10, 0, 0, 1), "bench")
	rec := Record{TS: 12345, Src: mkAddr(10, 0, 0, 2), Dst: mkAddr(10, 0, 0, 1),
		Size: 1250, TTL: 110, Kind: Video}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadNext(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, mkAddr(10, 0, 0, 1), "bench")
	for _, r := range randomRecords(10000, 4) {
		_ = w.Write(r)
	}
	_ = w.Close()
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// FuzzTraceReader feeds the reader bytes nobody wrote: it never panics, and
// what it accepts — the header and every record before the first error —
// re-encodes through the Writer to exactly the bytes it read, so the reader
// admits no trace the writer could not have produced.
func FuzzTraceReader(f *testing.F) {
	var valid bytes.Buffer
	w, _ := NewWriter(&valid, mkAddr(10, 0, 0, 1), "seed")
	for _, r := range randomRecords(3, 4) {
		_ = w.Write(r)
	}
	_ = w.Close()
	f.Add(valid.Bytes())
	huge := slices.Clone(valid.Bytes())
	copy(huge[len(huge)-recordBytes+16:], []byte{0xFF, 0xFF, 0xFF, 0xFF}) // last record's size
	f.Add(huge)
	f.Add(valid.Bytes()[:len(valid.Bytes())-5])
	f.Add([]byte(magic + "\x0a\x00\x00\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w, err := NewWriter(&out, r.Probe(), r.Label())
		if err != nil {
			t.Fatalf("accepted header (probe %v, label %q) does not re-encode: %v", r.Probe(), r.Label(), err)
		}
		clean := false
		for {
			rec, err := r.Next()
			if err == io.EOF {
				clean = true
				break
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("Next: %v, want ErrBadTrace", err)
				}
				break
			}
			if err := w.Write(rec); err != nil {
				t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) || clean && out.Len() != len(data) {
			t.Fatalf("re-encoded %x, read %x", out.Bytes(), data)
		}
	})
}
