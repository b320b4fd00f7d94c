// Command bfbench regenerates the paper's evaluation: for every scaling
// figure (Figs. 2, 3, 6, 9, 10a-f) it executes the corresponding task
// graphs under the simulated runtime models and prints the series the
// paper plots, one row per (figure, series, x, seconds).
//
// Usage:
//
//	bfbench                 # all figures
//	bfbench -figure fig6    # one figure
//	bfbench -format csv     # machine-readable output
//	bfbench -sched          # scheduler makespan benchmarks -> BENCH_sched.json
//	bfbench -faults         # recovery benchmarks (failure-free vs one peer killed) -> BENCH_faults.json
//	bfbench -iterate        # core.Iterate vs hand-unrolled DAG -> BENCH_iterate.json
//
// The end-to-end benchmark with per-layer attribution is bench/ (make bench).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/babelflow/babelflow-go/internal/sim"
)

// Report paths of the three benchmark modes (each preserves an existing
// baseline_seed section when it rewrites its file).
const (
	schedOut   = "BENCH_sched.json"
	faultsOut  = "BENCH_faults.json"
	iterateOut = "BENCH_iterate.json"
)

func main() {
	var (
		figure      = flag.String("figure", "", "regenerate one figure (default: all)")
		format      = flag.String("format", "table", "table | csv")
		schedBench  = flag.Bool("sched", false, "run the scheduler makespan benchmarks (FIFO vs priority vs priority+stealing) instead of the figures -> "+schedOut)
		faultsBench = flag.Bool("faults", false, "run the recovery benchmarks (failure-free vs one peer killed) instead of the figures -> "+faultsOut)
		iterBench   = flag.Bool("iterate", false, "run the loop-combinator benchmarks (core.Iterate unroll vs hand-unrolled static DAG) instead of the figures -> "+iterateOut)
	)
	flag.Parse()

	var mode func(string) error
	var out string
	switch {
	case *schedBench:
		mode, out = runSched, schedOut
	case *faultsBench:
		mode, out = runFaultsBench, faultsOut
	case *iterBench:
		mode, out = runIterateBench, iterateOut
	}
	if mode != nil {
		if err := mode(out); err != nil {
			log.Fatal(err)
		}
		return
	}

	names := sim.Figures()
	if *figure != "" {
		names = []string{*figure}
	}
	if *format == "csv" {
		fmt.Println("figure,series,x,seconds")
	}
	for _, name := range names {
		start := time.Now()
		rows, err := sim.Figure(name)
		if err != nil {
			log.Fatal(err)
		}
		switch *format {
		case "csv":
			for _, r := range rows {
				fmt.Printf("%s,%s,%d,%.6f\n", r.Figure, r.Series, r.X, r.Seconds)
			}
		case "table":
			fmt.Printf("== %s (%d rows, generated in %v)\n", name, len(rows), time.Since(start).Round(time.Millisecond))
			fmt.Printf("   %-30s %8s %12s\n", "series", "x", "seconds")
			for _, r := range rows {
				fmt.Printf("   %-30s %8d %12.3f\n", r.Series, r.X, r.Seconds)
			}
		default:
			fmt.Fprintf(os.Stderr, "bfbench: unknown format %q\n", *format)
			os.Exit(2)
		}
	}
}
