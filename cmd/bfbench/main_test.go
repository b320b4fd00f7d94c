package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/babelflow/babelflow-go/internal/sim"
)

// TestFigureCSV prints one figure as CSV: a header and one line per row of
// the figure's series.
func TestFigureCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "fig2", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	rows, err := sim.Figure("fig2")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if lines[0] != "figure,series,x,seconds" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 1+len(rows) {
		t.Fatalf("%d lines, want a header and %d rows", len(lines), len(rows))
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "fig2,") || strings.Count(l, ",") != 3 {
			t.Fatalf("row %q", l)
		}
	}
}

// TestUsageErrors rejects an unknown figure or format before computing
// anything: a usage error (exit status 2) and no output.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "fig99"},
		{"-format", "json"},
		{"-figure", "fig2", "-format", "json"},
		{"-sched"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		var usage usageError
		if !errors.As(err, &usage) {
			t.Errorf("bfbench %v: err = %v, want a usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("bfbench %v printed %q", args, out.String())
		}
	}
}
