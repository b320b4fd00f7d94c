// Command bench is the repository's one benchmark: five workloads on the
// real runtime, every run verified against the serial reference, end-to-end
// metrics with tracing off and per-layer metrics from a separate traced
// pass. See README.md in this directory.
//
//	go run ./bench                                  every workload, both passes, report + records
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   one measurement, one JSON line
//	go run ./bench -compare A.json B.json           the A/A gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// corruptReference makes every workload compare against a wrong digest; it
// exists so the oracle itself can be shown to fail (-corrupt-reference).
var corruptReference bool

// result is one measurement of one workload.
type result struct {
	attempted, failed int
	metrics           map[string]*metric
	log               *spanLog // spans of the traced pass, written at exit
}

func newResult() *result { return &result{metrics: make(map[string]*metric)} }

// add appends one sample to a metric.
func (r *result) add(name, unit string, v float64) {
	m := r.metrics[name]
	if m == nil {
		m = &metric{unit: unit}
		r.metrics[name] = m
	}
	m.samples = append(m.samples, v)
}

// set records a metric that is a single value (a count, or a ratio of
// medians).
func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = &metric{unit: unit, samples: []float64{v}}
}

func (r *result) value(name string) float64 {
	if m := r.metrics[name]; m != nil {
		return m.value()
	}
	return 0
}

// line is the single JSON object the driver reads from the last line of
// standard output.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "measure this workload only and print one JSON line (default: the whole suite)")
		seed    = flag.Uint64("seed", 1, "every input derives from this")
		seconds = flag.Float64("seconds", 20, "wall-clock budget of the measured phase of one workload")
		traced  = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny inputs and one-run trials: checks the harness, measures nothing")
		compare = flag.Bool("compare", false, "compare two record files (A.json B.json) and exit non-zero on a regression")
		out     = flag.String("out", "bench/out", "directory for records and traces")
	)
	flag.BoolVar(&corruptReference, "corrupt-reference", false, "compare against a corrupted reference digest: the run must fail")
	flag.Parse()
	// Ranks = 2, workers = 2 on a two-core box: the benchmark pins the Go
	// scheduler to match instead of inheriting whatever the host reports.
	runtime.GOMAXPROCS(workers)

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two record files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *name != "":
		os.Exit(single(spec, *name, config{seed: *seed, seconds: *seconds, trace: *traced == 1, smoke: *smoke, out: *out}))
	default:
		os.Exit(suite(spec, config{seed: *seed, seconds: *seconds, smoke: *smoke, out: *out}))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func find(name string) (workload, bool) {
	for _, w := range catalog() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// single measures one workload once and prints the driver's JSON line: the
// end-to-end metrics of BENCHMARK.json with tracing off, its per-layer
// metrics with tracing on. It exits non-zero when any operation failed.
func single(spec *benchSpec, name string, cfg config) int {
	w, ok := find(name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	res, err := w.measure(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	if cfg.trace {
		if err := writeTrace(cfg.out, name, res); err != nil {
			fatal(err)
		}
	}
	wanted := spec.EndToEnd
	if cfg.trace {
		wanted = spec.PerLayer
	}
	l := line{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]lineValue)}
	for _, m := range wanted {
		l.Metrics[m.Name] = lineValue{Value: res.value(m.Name), Unit: m.Unit}
		if rm := res.metrics[m.Name]; rm != nil {
			printRecord(rm.record(name, m.Name, m.Bound))
		}
	}
	enc, err := json.Marshal(l)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: fail_share %d/%d > 0\n", name, res.failed, res.attempted)
		return 1
	}
	return 0
}
