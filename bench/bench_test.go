package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/trace"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it; none
	// below n = 20, where it would fall under the median.
	for n, want := range map[int]int{9: 0, 19: 0, 20: 50, 30: 66, 100: 90, 1000: 99, 100000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	for _, n := range []int{20, 30, 57, 100, 640} {
		p := tailPercentile(n)
		if beyond := float64(n) * float64(100-p) / 100; beyond < 10 {
			t.Errorf("n=%d: p%d leaves %.1f samples beyond it, want >= 10", n, p, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps 2: covered time counts once
		{ID: 4, Parent: 1, Start: 70, End: 80},
		{ID: 5, Parent: 3, Start: 25, End: 45},
		{ID: 6, Parent: 1, Start: 95, End: 120}, // clipped to the parent
	}
	want := map[int]int64{1: 100 - 40 - 10 - 5, 2: 20, 3: 10, 4: 10, 5: 20, 6: 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestOccupancySumsToWorkerBudget(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	spans := []trace.Span{
		{Task: 1, Start: at(0), End: at(4)},
		{Task: 2, Start: at(2), End: at(6), QueueWait: 2 * time.Second}, // ready at 0, picked up at 2
	}
	busy, ready, starved := occupancy(spans, 2, at(0), at(10))
	// 0-2: one running, one queued -> 2 busy, 2 idle-ready. 2-4: both busy.
	// 4-6: one running, none queued -> 2 starved. 6-10: 8 starved.
	if busy != 8*time.Second || ready != 2*time.Second || starved != 10*time.Second {
		t.Fatalf("occupancy = busy %v, ready %v, starved %v; want 8s, 2s, 10s", busy, ready, starved)
	}
	if busy+ready+starved != 2*10*time.Second {
		t.Fatalf("shares do not sum to workers x wall")
	}
}

func TestJudge(t *testing.T) {
	base := record{Median: 100, Q1: 99, Q3: 101, Bound: 0.10}
	at := func(m float64) record { return record{Median: m, Q1: m - 1, Q3: m + 1} }
	cases := []struct {
		b      record
		higher bool
		want   verdict
	}{
		{at(105), false, same},
		{at(115), false, worse},
		{at(85), false, better},
		{at(85), true, worse},
		{at(115), true, better},
		{record{Median: 100, Q1: 90, Q3: 110}, false, unresolved}, // IQR 20% > bound 10%
	}
	for _, c := range cases {
		if got, _ := judge(base, c.b, c.higher); got != c.want {
			t.Errorf("judge(100 -> %v, higher=%v) = %s, want %s", c.b.Median, c.higher, got, c.want)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	if a, b := mixSequence(7, 256), mixSequence(7, 256); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different program sequence")
	}
	if a, b := mixSequence(7, 256), mixSequence(8, 256); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds, same program sequence")
	}
	seq := mixSequence(7, 256)
	for i := 0; i < len(seq); i += mixBlock {
		heavy := 0
		for _, s := range seq[i : i+mixBlock] {
			if s.program == heavyProgram.program {
				heavy++
			}
		}
		if heavy != 1 {
			t.Fatalf("block at %d holds %d heavy submissions, want exactly 1", i, heavy)
		}
	}
	for _, o := range oneShots() {
		// digests returns the digest of the generated external inputs and
		// that of the serial reference's sinks.
		digests := func(seed uint64) (inputs, sinks string) {
			build := o.gen(seed, true)
			df, err := build()
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			initial, err := df.initial()
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			if inputs, err = digestAndRelease(initial); err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			if _, sinks, err = serialRun(build); err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			return inputs, sinks
		}
		in7, out7 := digests(7)
		again, outAgain := digests(7)
		in8, _ := digests(8)
		if in7 != again || out7 != outAgain {
			t.Errorf("%s: same seed, different inputs or digest", o.name)
		}
		if in7 == in8 {
			t.Errorf("%s: different seeds, same inputs: the seed does not reach them", o.name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload end to end, both passes, on the
// smoke size class, and checks the harness against BENCHMARK.json: names,
// every end-to-end metric non-zero, every per-layer metric produced by at
// least one workload, nothing failed.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range catalog() {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json lists %v, the catalog has %v", names, have)
	}
	produced := make(map[string]bool)
	for _, w := range catalog() {
		cfg := config{seed: 3, seconds: 0.3, smoke: true, out: t.TempDir()}
		plain, err := w.measure(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if plain.failed != 0 || plain.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", w.name, plain.failed, plain.attempted)
		}
		for _, m := range spec.EndToEnd {
			if v := plain.value(m.Name); !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, m.Name, v)
			}
		}
		cfg.trace = true
		traced, err := w.measure(cfg)
		if err != nil {
			t.Fatalf("%s (traced): %v", w.name, err)
		}
		if traced.failed != 0 {
			t.Errorf("%s (traced): %d of %d operations failed", w.name, traced.failed, traced.attempted)
		}
		for n := range traced.metrics {
			produced[n] = true
		}
		if err := writeTrace(cfg.out, w.name, traced); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	for _, m := range spec.PerLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s of BENCHMARK.json is produced by no workload", m.Name)
		}
	}
}

func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	corruptReference = true
	defer func() { corruptReference = false }()
	for _, name := range []string{"graph-scale", "serve-mix"} {
		w, _ := find(name)
		res, err := w.measure(config{seed: 3, seconds: 0.2, smoke: true, out: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if res.failed == 0 || res.failed != res.attempted {
			t.Errorf("%s: %d of %d runs failed against a corrupted reference, want all", name, res.failed, res.attempted)
		}
	}
}
