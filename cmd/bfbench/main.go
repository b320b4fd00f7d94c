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
//
// The end-to-end benchmark with per-layer attribution is bench/ (make
// bench); the scheduler, recovery and loop-combinator measurements are Go
// benchmarks in internal/conformance (make perf-smoke runs them once).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"github.com/babelflow/babelflow-go/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bfbench:", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a rejected command line: main exits with status 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is bfbench: vet the command line, then print the selected figures'
// series to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main prints the one-line error; -h prints the flag list below
	figure := fs.String("figure", "", "regenerate one figure (default: all)")
	format := fs.String("format", "table", "table | csv")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.Usage()
			return nil
		}
		return usageError(fmt.Sprintf("%v (see bfbench -h)", err))
	}
	names := sim.Figures()
	if *figure != "" {
		if !slices.Contains(names, *figure) {
			return usageError(fmt.Sprintf("unknown figure %q (have %v)", *figure, names))
		}
		names = []string{*figure}
	}
	if *format != "table" && *format != "csv" {
		return usageError(fmt.Sprintf("unknown format %q (table | csv)", *format))
	}

	if *format == "csv" {
		fmt.Fprintln(stdout, "figure,series,x,seconds")
	}
	for _, name := range names {
		start := time.Now()
		rows, err := sim.Figure(name)
		if err != nil {
			return err
		}
		if *format == "csv" {
			for _, r := range rows {
				fmt.Fprintf(stdout, "%s,%s,%d,%.6f\n", r.Figure, r.Series, r.X, r.Seconds)
			}
			continue
		}
		fmt.Fprintf(stdout, "== %s (%d rows, generated in %v)\n", name, len(rows), time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(stdout, "   %-30s %8s %12s\n", "series", "x", "seconds")
		for _, r := range rows {
			fmt.Fprintf(stdout, "   %-30s %8d %12.3f\n", r.Series, r.X, r.Seconds)
		}
	}
	return nil
}
