package main

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	if want := fmt.Sprintf("\nwrote %d records to %s\n", len(want), csvPath); !strings.Contains(stdout.String(), want) {
		t.Errorf("summary does not end %q:\n%s", want, stdout.String())
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

// TestHandTraceSummary: the summary counts records and peers, and each
// peer's row carries its packet-pair gap (two full-size video packets
// apart) and its hop count (TTL 110 is 18 hops from 128; TTL 128 is 0), or
// "-" where there is none; -top cuts the rows. -h succeeds and an unknown
// flag is a usage error.
func TestHandTraceSummary(t *testing.T) {
	const probe, a, b = "\x0a\x00\x00\x01", "\x0a\x00\x00\x02", "\x0a\x00\x00\x03"
	trace := handTrace(handRecord{5000, a, probe}, handRecord{7000, a, probe}, handRecord{8000, b, probe})
	trace[len(trace)-2] = 128 // b's record arrives with TTL 128
	path := filepath.Join(t.TempDir(), "pair.nwt")
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	rows := func(args ...string) map[string][]string {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-trace", path}, args...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d:\n%s", args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "records: 3, distinct peers: 2") {
			t.Errorf("%v: summary does not count 3 records from 2 peers:\n%s", args, stdout.String())
		}
		out := map[string][]string{}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(line); len(f) == 7 && strings.HasPrefix(f[0], "10.0.0.") {
				out[f[0]] = f[5:]
			}
		}
		return out
	}
	want := map[string][]string{"10.0.0.2": {"2µs", "18"}, "10.0.0.3": {"-", "0"}}
	if got := rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("MinIPG and Hops by peer %v, want %v", got, want)
	}
	if got := rows("-top", "1"); len(got) != 1 || got["10.0.0.2"] == nil {
		t.Errorf("-top 1 printed rows %v, want the peer with the most video", got)
	}
	for args, want := range map[string]int{"-h": 0, "-bogus": 2} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{args}, &stdout, &stderr); code != want {
			t.Errorf("%s: exit %d, want %d", args, code, want)
		}
	}
}
