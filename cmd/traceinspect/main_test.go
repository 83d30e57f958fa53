package main

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"napawine/internal/experiment"
	"napawine/internal/packet"
)

// storedTrace runs a small experiment with StoreTraces set and returns the
// largest probe trace it archived.
func storedTrace(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := experiment.Default("TVAnts")
	cfg.Duration = time.Minute
	cfg.World.Peers = 100
	cfg.StoreTraces = dir
	if _, err := experiment.Run(cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no stored traces: %v", err)
	}
	best, size := "", int64(-1)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Size() > size {
			best, size = filepath.Join(dir, e.Name()), info.Size()
		}
	}
	return best
}

// TestStoredTraceRoundTripsToCSV: every record of a trace the simulator
// archived comes out of -csv, in order and field for field, and the summary
// counts the same records.
func TestStoredTraceRoundTripsToCSV(t *testing.T) {
	trace := storedTrace(t)
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := packet.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rd.ReadAll()
	if err != nil || len(want) == 0 {
		t.Fatalf("stored trace holds %d records: %v", len(want), err)
	}

	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", trace, "-csv", csvPath, "-top", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), rd.Probe().String()) ||
		!strings.Contains(stdout.String(), "Top 3 peers by video bytes") {
		t.Errorf("summary names neither the probe nor the table:\n%s", stdout.String())
	}

	out, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	rows, err := csv.NewReader(out).ReadAll()
	if err != nil {
		t.Fatalf("-csv output is not CSV: %v", err)
	}
	if len(rows) != len(want)+1 {
		t.Fatalf("csv holds %d rows after the header, the trace %d records", len(rows)-1, len(want))
	}
	for i, r := range want {
		rec := []string{
			strconv.FormatInt(int64(r.TS), 10), r.Src.String(), r.Dst.String(),
			strconv.FormatInt(int64(r.Size), 10), strconv.Itoa(int(r.TTL)), r.Kind.String(),
		}
		if !slices.Equal(rows[i+1], rec) {
			t.Fatalf("csv row %d is %v, the trace record %v", i+2, rows[i+1], rec)
		}
	}
}

// handRecord is one record of a hand-built trace: its time in nanoseconds
// and its IPv4 endpoints as four raw bytes each.
type handRecord struct {
	ns       uint64
	src, dst string
}

// handTrace encodes a trace at probe 10.0.0.1 byte by byte, as the format
// lays it out, so it can hold records no capture produces; every record is
// 1250 bytes of video at TTL 110.
func handTrace(recs ...handRecord) []byte {
	out := []byte("NWT1\x0a\x00\x00\x01\x00") // magic, probe, empty label
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint64(out, r.ns)
		out = append(out, r.src...)
		out = append(out, r.dst...)
		out = binary.LittleEndian.AppendUint32(out, 1250)
		out = append(out, 110, byte(packet.Video))
	}
	return out
}

// TestMalformedTraceExitsOne: a truncated record, a truncated header, a
// record not involving the probe, a timestamp running backwards and a
// missing file are reported as errors with exit status 1, never a panic or
// a summary, and leave no file at the -csv path; a missing -trace, a -top
// below 1 and a -csv naming the -trace file (by any spelling) are usage
// errors that leave the trace's bytes as they were.
func TestMalformedTraceExitsOne(t *testing.T) {
	whole, err := os.ReadFile(storedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const probe, peer = "\x0a\x00\x00\x01", "\x0a\x00\x00\x02"
	csvOut := filepath.Join(dir, "out.csv")
	good := write("good.nwt", whole)
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"truncated record", []string{"-trace", write("cut.nwt", whole[:len(whole)-5])}, 1},
		{"truncated header", []string{"-trace", write("head.nwt", whole[:6])}, 1},
		{"not a trace", []string{"-trace", write("text.nwt", []byte("hello, world\n"))}, 1},
		{"missing file", []string{"-trace", filepath.Join(dir, "absent.nwt")}, 1},
		{"foreign record", []string{"-trace", write("foreign.nwt", handTrace(
			handRecord{5000, peer, probe}, handRecord{6000, "\x0a\x09\x09\x09", peer}))}, 1},
		{"backwards timestamp", []string{"-trace", write("back.nwt", handTrace(
			handRecord{5000, peer, probe}, handRecord{1000, peer, probe}))}, 1},
		{"no -trace", nil, 2},
		{"truncated record, -csv", []string{"-trace", write("cut.nwt", whole[:len(whole)-5]), "-csv", csvOut}, 1},
		{"unwritable -csv", []string{"-trace", good, "-csv", filepath.Join(dir, "absent", "out.csv")}, 1},
		{"-top 0", []string{"-trace", good, "-top", "0"}, 2},
		{"-top -3", []string{"-trace", good, "-top", "-3"}, 2},
		{"-csv is -trace", []string{"-trace", good, "-csv", good}, 2},
		{"-csv is -trace, spelled otherwise", []string{"-trace", good, "-csv", dir + "/./good.nwt"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), "traceinspect:") {
			t.Errorf("%s: exit %d, stderr %q; want exit %d with a message", tc.name, code, stderr.String(), tc.code)
		}
		if strings.Contains(stdout.String(), "peers by video bytes") {
			t.Errorf("%s: printed a summary:\n%s", tc.name, stdout.String())
		}
		if _, err := os.Stat(csvOut); !os.IsNotExist(err) {
			t.Errorf("%s: left a file at the -csv path (%v)", tc.name, err)
		}
		if b, err := os.ReadFile(good); err != nil || !bytes.Equal(b, whole) {
			t.Errorf("%s: the trace's bytes changed (%v)", tc.name, err)
		}
	}
}
