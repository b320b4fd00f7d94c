package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance is the header of a record file: enough to tell whether two
// files may be compared at all.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Trials is the number of timed trials each workload got out of Seconds.
	Trials map[string]int `json:"trials"`
}

type recordFile struct {
	Provenance provenance `json:"provenance"`
	Records    []record   `json:"records"`
}

func describeHost(cfg config) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, Trials: make(map[string]int),
	}
	// A checkout need not be a git repository; the commit is best effort.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// suite runs every workload, untraced then traced, prints every metric by
// name with its unit, the closing report, and writes the records. It exits
// non-zero when any operation of any workload failed.
func suite(spec *benchSpec, cfg config) int {
	outDir := cfg.out
	file := recordFile{Provenance: describeHost(cfg)}
	attempted, failed := 0, 0
	for _, w := range catalog() {
		fmt.Printf("== %s: %s\n", w.name, spec.why(w.name))
		plain, err := w.measure(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		tcfg := cfg
		tcfg.trace, tcfg.seconds = true, cfg.seconds/2
		traced, err := w.measure(tcfg)
		if err != nil {
			fatal(fmt.Errorf("%s (traced): %w", w.name, err))
		}
		if err := writeTrace(outDir, w.name, traced); err != nil {
			fatal(err)
		}
		attempted += plain.attempted + traced.attempted
		failed += plain.failed + traced.failed
		file.Provenance.Trials[w.name] = len(plain.metrics["run_s"].samples)

		// End-to-end numbers always come from the untraced pass.
		for _, m := range spec.EndToEnd {
			if pm := plain.metrics[m.Name]; pm != nil {
				file.Records = append(file.Records, pm.record(w.name, m.Name, m.Bound))
			}
		}
		fail := metric{unit: "ratio", samples: []float64{float64(plain.failed+traced.failed) / float64(plain.attempted+traced.attempted)}}
		file.Records = append(file.Records, fail.record(w.name, "fail_share", 0))
		names := make([]string, 0, len(traced.metrics))
		for n := range traced.metrics {
			if _, e2e := spec.endToEnd(n); !e2e {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			file.Records = append(file.Records, traced.metrics[n].record(w.name, n, 0))
		}
		for _, r := range file.Records {
			if r.Workload == w.name {
				printRecord(r)
			}
		}
		closingReport(w.name, plain, traced)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(outDir, "records.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\n%d records -> %s; fail_share %d/%d\n", len(file.Records), path, failed, attempted)
	if failed > 0 {
		return 1
	}
	return 0
}

func printRecord(r record) {
	tail := ""
	if r.P > 0 {
		tail = fmt.Sprintf("  p%d %.6g", r.P, r.PValue)
	}
	bound := ""
	if r.Bound > 0 {
		bound = fmt.Sprintf("  bound %.0f%%", 100*r.Bound)
	}
	fmt.Printf("  %-32s %14.6g %-7s n=%-5d q1 %.6g  q3 %.6g%s%s\n", r.Metric, r.Median, r.Unit, r.N, r.Q1, r.Q3, tail, bound)
}

// layerRow is one line of the layer table: a share of the worker budget,
// workers x run_s.
type layerRow struct {
	layer string
	share float64
}

// layerTable splits the worker budget of a traced workload. Callback time
// is measured; serde is an estimate (bytes that crossed ranks x the probe's
// serialise cost per byte); send is measured. What is left is worker time
// outside every call the benchmark can wrap, split by the occupancy sweep
// into time a ready task was waiting (dispatch, routing: runtime overhead)
// and time no task was ready (starved). The rows sum to 1.
func layerTable(traced *result) []layerRow {
	callback := traced.value("callback.share")
	send := traced.value("send_share")
	// The serde estimate can overshoot; it cannot exceed the worker time
	// that was spent outside callbacks and sends.
	serde := min(traced.value("serde_share"), max(1-callback-send, 0))
	ready, starved := traced.value("mpi.idle_ready_share"), traced.value("mpi.idle_starved_share")
	rest := max(1-callback-serde-send, 0)
	dispatch, starve := rest, 0.0
	if ready+starved > 0 {
		dispatch, starve = rest*ready/(ready+starved), rest*starved/(ready+starved)
	}
	rows := []layerRow{
		{"callback (use-case compute)", callback},
		{"serde (estimate)", serde},
		{"transport send", send},
		{"mpi dispatch+routing (task ready, worker not in a callback)", dispatch},
		{"mpi starved (no task ready)", starve},
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	return rows
}

// closingReport turns one workload's numbers into conclusions: the layer
// table, the top three layers, the critical path beside the measured run,
// and the simulator's prediction where it was run.
func closingReport(name string, plain, traced *result) {
	run := plain.value("run_s")
	fmt.Printf("  -- layer table, shares of the worker time of a traced run (workers x run time, %d workers)\n", workers)
	rows := layerTable(traced)
	for _, r := range rows {
		fmt.Printf("     %5.1f%%  %s\n", 100*r.share, r.layer)
	}
	fmt.Printf("     unattributed_share %.3f (dispatch + starved: worker time outside every wrapped call)\n", traced.value("unattributed_share"))
	fmt.Printf("  -- top three layers: 1. %s  2. %s  3. %s\n", rows[0].layer, rows[1].layer, rows[2].layer)
	if name != "serve-mix" {
		fmt.Printf("  -- run_s %.4g s beside mpi.critical_path_s %.4g s (lower bound of any schedule of these callbacks); serial %.4g s, speedup_x %.2f; trace_overhead_x %.3f\n",
			run, traced.value("mpi.critical_path_s"), traced.value("core.serial_run_s"), traced.value("speedup_x"), traced.value("trace_overhead_x"))
		cold := plain.value("setup_s") + run
		fmt.Printf("  -- cold wall-clock setup_s + run_s = %.4g s; core.initialize_ms is %.1f%% of it\n",
			cold, 100*traced.value("core.initialize_ms")/1e3/cold)
	}
	if traced.log != nil {
		fmt.Printf("  -- self time (span minus children) of the one run written to the trace, by kind of span, ms:")
		self := selfByKind(traced.log.spans)
		kinds := make([]string, 0, len(self))
		for k, ns := range self {
			if ns > 0 {
				kinds = append(kinds, k)
			}
		}
		sort.Slice(kinds, func(i, j int) bool { return self[kinds[i]] > self[kinds[j]] })
		for _, k := range kinds {
			fmt.Printf("  %s %.3f", k, float64(self[k])/1e6)
		}
		fmt.Println()
	}
	if v := traced.value("sim.predicted_over_measured"); v > 0 {
		fmt.Printf("  -- sim.predicted_over_measured %.3f (DES replay of the traced spans, MPI model, %d cores)\n", v, workers)
	}
	if name == "serve-mix" {
		fmt.Println("  -- warm mpi.Service.Submit against a cold one-shot of the same submission, per program (ms):")
		for _, s := range append([]submission{heavyProgram}, smallPrograms...) {
			warm, cold := traced.value("service_submit_ms."+s.program), traced.value("cold_oneshot_ms."+s.program)
			verdict := ""
			if warm > cold {
				verdict = "  <- warm slower than cold"
			}
			fmt.Printf("     %-10s warm %8.3f  cold %8.3f%s\n", s.program, warm, cold, verdict)
		}
	}
}
