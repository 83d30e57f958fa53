// Command bench is the repository's one benchmark: six named workloads run
// as fresh child processes, end-to-end host-time metrics with medians and
// quartiles, a per-layer ledger of kernels timed through the packages'
// exported functions, and one traced round whose CPU profile is folded by
// layer. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		child   = fs.Bool("child", false, "internal: run one workload from stdin and report on stdout")
		name    = fs.String("workload", "", "run only this workload and print one JSON result line (the driver's mode)")
		seed    = fs.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = fs.Float64("seconds", 10, "with -workload: keep repeating the workload until this much host time is measured")
		trace   = fs.Int("trace", 0, "with -workload: 1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		aa      = fs.Bool("aa", false, "run two full sets on this tree and fail unless their medians agree within the bounds")
		repin   = fs.Bool("repin", false, "rewrite bench/expected.json from a seed-1 run of every workload")
		smoke   = fs.Bool("smoke", false, "miniature scale: ~100 peers, 10 virtual s, one round, one iteration per kernel")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child {
		return childMain()
	}
	opts := options{seed: workloadSeed(*seed), smoke: *smoke, outDir: "bench/out"}
	var err error
	switch {
	case *name != "":
		err = driverRun(opts, *name, *seconds, *trace != 0, os.Stdout)
	case *repin:
		err = repinExpected(opts)
	case *aa:
		err = aaCheck(opts)
	default:
		_, err = fullRun(opts, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// workloadSeed maps the -seed flag to the seed the inputs are made from.
// The study codec reads seed 0 as "the calibrated default", which is seed 1,
// and the grid runs seeds s and s+1, so neither may be 0: seeds from 1 up
// are used as given and seeds below 1 move down past -1. No two flag values
// share a workload seed.
func workloadSeed(flagSeed int64) int64 {
	if flagSeed < 1 {
		return flagSeed - 2
	}
	return flagSeed
}
