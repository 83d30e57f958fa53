package packet

import (
	"bytes"
	"encoding/binary"
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

// testProbe is the probe every test trace is captured at.
var testProbe = mkAddr(10, 0, 0, 1)

// randomRecords builds n records a capture at testProbe could have seen:
// each between the probe and a random remote, either way, with timestamps
// that never decrease (equal ones included).
func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	var ts sim.Time
	for i := range recs {
		ts += sim.Time(rng.Int63n(1 << 30))
		remote := mkAddr(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(253)))
		src, dst := remote, testProbe
		if rng.Intn(2) == 0 {
			src, dst = dst, src
		}
		recs[i] = Record{
			TS:   ts,
			Src:  src,
			Dst:  dst,
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

// Property: any record a capture at the probe can see survives a binary
// round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(ts uint64, remote [4]byte, inbound bool, size uint16, ttl uint8, kind uint8) bool {
		rec := Record{
			TS:   sim.Time(ts >> 1),
			Src:  testProbe,
			Dst:  netip.AddrFrom4(remote),
			Size: units.ByteSize(size),
			TTL:  ttl,
			Kind: Kind(kind % 3),
		}
		if inbound {
			rec.Src, rec.Dst = rec.Dst, rec.Src
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testProbe, "p")
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
		[]byte("NWT1"),                 // missing probe
		[]byte("NWT1\x0a\x00\x00"),     // short probe
		[]byte("NWT1\x0a\x00\x00\x01"), // no label length
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

// TestWriterRejectsNonIPv4: the format holds IPv4 addresses only, and a
// writer that refused a record reports it again on Close.
func TestWriterRejectsNonIPv4(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testProbe, "x")
	err := w.Write(Record{TS: 1, Src: netip.MustParseAddr("2001:db8::1"), Dst: testProbe, Size: 10})
	if err == nil || !strings.Contains(err.Error(), "IPv4") {
		t.Fatalf("IPv6 record: %v, want a refusal naming IPv4", err)
	}
	if cerr := w.Close(); cerr != err {
		t.Errorf("Close = %v, want the refusal %v", cerr, err)
	}
}

// rawTrace encodes a header for probe and the given records byte by byte,
// as the format lays them out, so a test can hold a trace the Writer would
// refuse to produce.
func rawTrace(probe netip.Addr, recs ...Record) []byte {
	a := probe.As4()
	out := append([]byte(magic), a[:]...)
	out = append(out, 0) // empty label
	for _, r := range recs {
		src, dst := r.Src.As4(), r.Dst.As4()
		out = binary.LittleEndian.AppendUint64(out, uint64(r.TS))
		out = append(out, src[:]...)
		out = append(out, dst[:]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(r.Size))
		out = append(out, r.TTL, byte(r.Kind))
	}
	return out
}

// badOrderTraces are records a capture at testProbe would have panicked on,
// each after a good first record: the name of the fault and the record.
var badOrderTraces = []struct {
	name  string
	fault string
	recs  []Record
}{
	{"foreign record", "does not involve probe 10.0.0.1", []Record{
		{TS: 5000, Src: mkAddr(10, 0, 0, 2), Dst: testProbe, Size: 1250, TTL: 110},
		{TS: 6000, Src: mkAddr(10, 9, 9, 9), Dst: mkAddr(10, 0, 0, 2), Size: 1250, TTL: 110},
	}},
	{"backwards timestamp", "at 1000 ns runs back from 5000 ns", []Record{
		{TS: 5000, Src: mkAddr(10, 0, 0, 2), Dst: testProbe, Size: 1250, TTL: 110},
		{TS: 1000, Src: mkAddr(10, 0, 0, 2), Dst: testProbe, Size: 1250, TTL: 110},
	}},
	{"negative timestamp", "at -1 ns runs back from 0 ns", []Record{
		{TS: 0, Src: testProbe, Dst: mkAddr(10, 0, 0, 2), Size: 80, TTL: 128},
		{TS: -1, Src: testProbe, Dst: mkAddr(10, 0, 0, 2), Size: 80, TTL: 128},
	}},
}

// TestReaderRejectsWhatACaptureCannotSee: a record not involving the probe,
// or stamped before the one ahead of it, is ErrBadTrace naming the record —
// after the good record before it was read.
func TestReaderRejectsWhatACaptureCannotSee(t *testing.T) {
	for _, tc := range badOrderTraces {
		r, err := NewReader(bytes.NewReader(rawTrace(testProbe, tc.recs...)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		if len(got) != 1 || got[0] != tc.recs[0] {
			t.Errorf("%s: read %+v before the fault, want the first record", tc.name, got)
		}
		if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "record 2 ") || !strings.Contains(err.Error(), tc.fault) {
			t.Errorf("%s: ReadAll error %v, want ErrBadTrace naming record 2: %q", tc.name, err, tc.fault)
		}
	}
}

// TestWriterRejectsWhatACaptureCannotSee: the Writer refuses the same
// records, and stays failed.
func TestWriterRejectsWhatACaptureCannotSee(t *testing.T) {
	for _, tc := range badOrderTraces {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, testProbe, "x")
		if err := w.Write(tc.recs[0]); err != nil {
			t.Fatalf("%s: first record refused: %v", tc.name, err)
		}
		if err := w.Write(tc.recs[1]); err == nil || !strings.Contains(err.Error(), "record 2 ") || !strings.Contains(err.Error(), tc.fault) {
			t.Errorf("%s: Write error %v, want one naming record 2: %q", tc.name, err, tc.fault)
		}
		if err := w.Write(Record{TS: 1 << 40, Src: testProbe, Dst: mkAddr(10, 0, 0, 2)}); err == nil {
			t.Errorf("%s: writer should stay failed after an error", tc.name)
		}
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
// row, then one row per record whose six fields are the record's; an error
// from the record source other than io.EOF is WriteCSV's error.
func TestCSVRoundTrip(t *testing.T) {
	recs := randomRecords(50, 3)
	from := func(recs []Record, end error) func() (Record, error) {
		return func() (Record, error) {
			if len(recs) == 0 {
				return Record{}, end
			}
			r := recs[0]
			recs = recs[1:]
			return r, nil
		}
	}
	if err := WriteCSV(io.Discard, from(recs, ErrBadTrace)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("WriteCSV over a failing source: %v, want ErrBadTrace", err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, from(recs, io.EOF)); err != nil {
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
	for _, tc := range badOrderTraces {
		f.Add(rawTrace(testProbe, tc.recs...))
	}
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
