// Command traceinspect summarizes or converts a binary probe trace
// produced by the napawine simulator.
//
// Usage:
//
//	traceinspect -trace probe.nwt            # header + per-peer summary
//	traceinspect -trace probe.nwt -csv out.csv
//	traceinspect -trace probe.nwt -top 5     # top contributors only
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"napawine/internal/analysis"
	"napawine/internal/packet"
	"napawine/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind a testable signature: exit status 0, 1
// for an unreadable or malformed trace (or an unwritable -csv), 2 for a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceinspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath = fs.String("trace", "", "binary trace file (required)")
		csvPath   = fs.String("csv", "", "also convert the trace to CSV at this path")
		top       = fs.Int("top", 10, "show the top-N peers by video bytes")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *tracePath == "" {
		fmt.Fprintln(stderr, "traceinspect: -trace is required")
		fs.Usage()
		return 2
	}
	if *top < 1 {
		fmt.Fprintf(stderr, "traceinspect: -top must be at least 1, got %d\n", *top)
		fs.Usage()
		return 2
	}
	// The CSV streams while the trace is read, so writing over the trace
	// would truncate it before its first record.
	if ti, err := os.Stat(*tracePath); err == nil && *csvPath != "" {
		if ci, err := os.Stat(*csvPath); err == nil && os.SameFile(ti, ci) {
			fmt.Fprintf(stderr, "traceinspect: -csv %s is the -trace file\n", *csvPath)
			fs.Usage()
			return 2
		}
	}
	if err := inspect(stdout, *tracePath, *csvPath, *top); err != nil {
		fmt.Fprintln(stderr, "traceinspect:", err)
		return 1
	}
	return 0
}

// inspect prints the trace's header and top-N peer summary, and converts
// it to CSV when csvPath is set, one row as each record is read. A run
// that fails after creating the CSV file removes it.
func inspect(stdout io.Writer, tracePath, csvPath string, top int) (err error) {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := packet.NewReader(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace %s\n  probe: %v\n  label: %q\n", tracePath, r.Probe(), r.Label())

	agg := analysis.New(r.Probe(), analysis.DefaultConfig())
	next := func() (packet.Record, error) {
		rec, err := r.Next()
		if err == nil {
			agg.Consume(rec)
		}
		return rec, err
	}
	if csvPath == "" {
		for err == nil {
			_, err = next()
		}
		if !errors.Is(err, io.EOF) {
			return err
		}
	} else {
		var out *os.File
		if out, err = os.Create(csvPath); err != nil {
			return err
		}
		defer func() {
			if err != nil {
				os.Remove(csvPath)
			}
		}()
		if err = errors.Join(packet.WriteCSV(out, next), out.Close()); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "  records: %d, distinct peers: %d\n\n", agg.Records(), agg.PeerCount())

	t := report.NewTable(fmt.Sprintf("Top %d peers by video bytes", top),
		"Peer", "Video RX", "Video TX", "Total RX", "Total TX", "MinIPG", "Hops")
	for i, addr := range agg.PeerAddrs() {
		if i >= top {
			break
		}
		p, _ := agg.Peer(addr)
		hops := "-"
		if p.Hops() >= 0 {
			hops = fmt.Sprintf("%d", p.Hops())
		}
		ipg := "-"
		if p.MinIPG > 0 {
			ipg = p.MinIPG.String()
		}
		t.Add(addr.String(),
			fmt.Sprintf("%d", p.VideoDown), fmt.Sprintf("%d", p.VideoUp),
			fmt.Sprintf("%d", p.TotalDown), fmt.Sprintf("%d", p.TotalUp),
			ipg, hops)
	}
	if err := t.Render(stdout); err != nil {
		return err
	}
	if csvPath != "" {
		fmt.Fprintf(stdout, "\nwrote %d records to %s\n", agg.Records(), csvPath)
	}
	return nil
}
