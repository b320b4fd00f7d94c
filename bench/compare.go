package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is the outcome of comparing one (workload, end-to-end metric)
// pair of two record files.
type verdict string

const (
	same       verdict = "ok"
	worse      verdict = "WORSE"
	better     verdict = "better"
	unresolved verdict = "UNRESOLVED"
)

// judge compares the second measurement b with the first a. worseBy is the
// share of a's median by which b is worse (negative: better). A pair whose
// run-to-run spread (IQR / median, of either file) is wider than the bound
// cannot resolve a difference of the size of the bound and is reported as
// unresolved, never as unchanged.
func judge(a, b record, higherIsBetter bool) (v verdict, worseBy float64) {
	if a.Median == 0 {
		return unresolved, 0
	}
	worseBy = (b.Median - a.Median) / a.Median
	if higherIsBetter {
		worseBy = -worseBy
	}
	spread := func(r record) float64 {
		if r.Median == 0 {
			return 0
		}
		return (r.Q3 - r.Q1) / r.Median
	}
	switch {
	case spread(a) > a.Bound || spread(b) > a.Bound:
		return unresolved, worseBy
	case worseBy > a.Bound:
		return worse, worseBy
	case worseBy < -a.Bound:
		return better, worseBy
	}
	return same, worseBy
}

func readRecords(path string) (recordFile, error) {
	var f recordFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles is the gate: every end-to-end row of A (those carrying a
// bound) must have a counterpart in B that is not worse by more than the
// bound and whose spread resolves the bound. It prints every row, marks the
// offending ones, and returns the process exit code.
func compareFiles(pathA, pathB string) int {
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readRecords(pathB)
	if err != nil {
		fatal(err)
	}
	if pa, pb := a.Provenance, b.Provenance; pa.CPUModel != pb.CPUModel || pa.GOMAXPROCS != pb.GOMAXPROCS || pa.Seconds != pb.Seconds {
		fmt.Printf("note: the files differ in machine or settings (%q/%d/%gs vs %q/%d/%gs)\n",
			pa.CPUModel, pa.GOMAXPROCS, pa.Seconds, pb.CPUModel, pb.GOMAXPROCS, pb.Seconds)
	}
	index := make(map[string]record)
	for _, r := range b.Records {
		index[r.Workload+"\x00"+r.Metric] = r
	}
	offending := 0
	for _, ra := range a.Records {
		if ra.Metric == "fail_share" {
			if rb := index[ra.Workload+"\x00"+ra.Metric]; ra.Median > 0 || rb.Median > 0 {
				fmt.Printf("%-10s %-14s fail_share %g -> %g: must be 0\n", worse, ra.Workload, ra.Median, rb.Median)
				offending++
			}
			continue
		}
		m, ok := spec.endToEnd(ra.Metric)
		if !ok || ra.Bound == 0 {
			continue
		}
		rb, ok := index[ra.Workload+"\x00"+ra.Metric]
		if !ok {
			fmt.Printf("%-10s %-14s %-11s missing from %s\n", worse, ra.Workload, ra.Metric, pathB)
			offending++
			continue
		}
		v, by := judge(ra, rb, m.Better == "higher")
		fmt.Printf("%-10s %-14s %-11s %12.6g -> %12.6g %-6s %+6.1f%% worse (bound %.0f%%, IQR/median %.1f%% and %.1f%%)\n",
			v, ra.Workload, ra.Metric, ra.Median, rb.Median, ra.Unit, 100*by, 100*ra.Bound,
			100*(ra.Q3-ra.Q1)/ra.Median, 100*(rb.Q3-rb.Q1)/rb.Median)
		if v == worse || v == unresolved {
			offending++
		}
	}
	if offending > 0 {
		fmt.Printf("%d offending row(s)\n", offending)
		return 1
	}
	fmt.Println("every end-to-end row within its bound")
	return 0
}
