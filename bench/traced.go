package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/sim"
	"github.com/babelflow/babelflow-go/internal/trace"
)

// layerValue is one per-layer number of one traced run.
type layerValue struct {
	name, unit string
	v          float64
}

// layerValues turns one traced run into its per-layer numbers, always in
// the same order. The worker budget of a run is workers x run time; see
// README.md, "The layer table".
func (o *oneShot) layerValues(c cold) ([]layerValue, error) {
	busy, ready, starved := occupancy(c.spans, workers, c.start, c.end)
	sum, err := trace.Summarize(c.graph, c.spans)
	if err != nil {
		return nil, err
	}
	waits := make([]float64, len(c.spans))
	for i, sp := range c.spans {
		waits[i] = sp.QueueWait.Seconds() * 1e3
	}
	run := c.run.Seconds()
	budget := workers * run
	t := c.traffic
	vs := []layerValue{
		{"traced_run_s", "s", run},
		{"graphs.build_ms", "ms", c.build.Seconds() * 1e3},
		{"core.initialize_ms", "ms", c.initialize.Seconds() * 1e3},
		{"callback.busy_s", "s", busy.Seconds()},
		{"callback.calls", "count", float64(len(c.spans))},
		{"callback.share", "ratio", busy.Seconds() / budget},
		{"mpi.idle_ready_share", "ratio", ready.Seconds() / budget},
		{"mpi.idle_starved_share", "ratio", starved.Seconds() / budget},
		{"mpi.queue_wait_ms", "ms", median(waits)},
		{"mpi.queue_wait_sum_s", "s", sum.QueueWait.Seconds()},
		{"mpi.utilization", "ratio", sum.Utilization()},
		{"mpi.critical_path_s", "s", sum.CriticalPath.Seconds()},
		{"mpi.overhead_s", "s", run - sum.CriticalPath.Seconds()},
		{"serde.bytes", "bytes", t.bytes},
		{"send_share", "ratio", t.sendS / budget},
	}
	layer := "fabric"
	if o.overWire {
		layer = "wire"
		vs = append(vs,
			layerValue{"wire.bootstrap_ms", "ms", c.bootstrap.Seconds() * 1e3},
			layerValue{"wire.mb_per_s", "MB/s", t.bytes / 1e6 / run})
	}
	return append(vs,
		layerValue{layer + ".msgs", "count", t.msgs},
		layerValue{layer + ".bytes", "bytes", t.bytes},
		layerValue{layer + ".send_us", "us", t.sendS * 1e6},
		layerValue{layer + ".recv_wait_s", "s", t.recvWaitS}), nil
}

// addLayerTrial adds one sample per layer metric: the mean over the runs of
// one traced trial.
func (o *oneShot) addLayerTrial(res *result, t trialResult) error {
	var mean []layerValue
	for _, c := range t.runs {
		vs, err := o.layerValues(c)
		if err != nil {
			return err
		}
		for i, v := range vs {
			if len(mean) == i {
				mean = append(mean, layerValue{v.name, v.unit, 0})
			}
			mean[i].v += v.v / float64(len(t.runs))
		}
	}
	for _, m := range mean {
		res.add(m.name, m.unit, m.v)
	}
	return nil
}

// measureLayers is the traced pass of a one-shot workload. Rounds of one
// plain trial, one traced trial and one serial run are interleaved so all
// three lanes see the same machine; what is left of the budget goes to the
// probes that belong to this workload.
func (o *oneShot) measureLayers(cfg config, build func() (*dataflow, error), want string, k int, res *result) error {
	begin := time.Now()
	left := func() time.Duration {
		return time.Duration(cfg.seconds*float64(time.Second)) - time.Since(begin)
	}
	log := newSpanLog()
	res.log = log

	// The probe run: serialisation timed inside the callback wrapper, the
	// run itself kept out of every statistic.
	probe := &serdeProbe{}
	c, err := o.once(build, &tracing{probe: probe})
	if err != nil {
		return err
	}
	res.attempted++
	if c.digest != want {
		res.failed++
	}
	var serNsPerByte float64
	if probe.bytes > 0 {
		serNsPerByte = float64(probe.serNs) / float64(probe.bytes)
		res.set("serde.ns_per_byte", "ns/B", float64(probe.serNs+probe.desNs)/float64(probe.bytes))
	}
	res.set("core.tasks", "count", float64(c.graph.Size()))
	timeGraphWalks(res, c.graph)

	const maxRounds = 5
	var allocBytes, allocObjects uint64
	plainRuns := 0
	var last cold // a traced run outside the probe, for the simulator
	for round := 0; round < maxRounds && (round == 0 || left() > time.Duration(cfg.seconds*0.4*float64(time.Second))); round++ {
		m0 := markMem()
		plain, err := o.trial(build, want, k, nil)
		if err != nil {
			return err
		}
		m1 := markMem()
		allocBytes += m1.bytes - m0.bytes
		allocObjects += m1.objects - m0.objects
		plainRuns += k
		tr := &tracing{trial: round}
		if round == 0 {
			tr.log = log // one fully written run keeps the trace file small
		}
		traced, err := o.trial(build, want, k, tr)
		if err != nil {
			return err
		}
		last = traced.runs[0]
		res.attempted += 2 * k
		res.failed += plain.failed + traced.failed
		res.add("run_s", "s", plain.runS)
		res.add("setup_s", "s", plain.setupS)
		if err := o.addLayerTrial(res, traced); err != nil {
			return err
		}
		d, digest, err := serialRun(build)
		if err != nil {
			return err
		}
		res.attempted++
		if digest != want {
			res.failed++
		}
		res.add("core.serial_run_s", "s", d.Seconds())
	}
	res.set("mem.alloc_mb_per_run", "MB", float64(allocBytes)/1e6/float64(plainRuns))
	res.set("mem.allocs_per_run", "count", float64(allocObjects)/float64(plainRuns))

	run, tracedRun := res.value("run_s"), res.value("traced_run_s")
	budget := workers * tracedRun
	serdeShare := res.value("serde.bytes") * serNsPerByte / 1e9 / budget
	res.set("serde_share", "ratio", serdeShare)
	res.set("speedup_x", "x", res.value("core.serial_run_s")/run)
	res.set("trace_overhead_x", "x", tracedRun/run)
	res.set("unattributed_share", "ratio", max(1-res.value("callback.share")-serdeShare-res.value("send_share"), 0))

	if o.diagnostics {
		if err := simulate(res, last, tracedRun); err != nil {
			return err
		}
		if err := probeControllers(res, build, want, left()/2); err != nil {
			return err
		}
		if err := probeJournal(res, build, want, run, cfg.out); err != nil {
			return err
		}
	}
	if o.overWire {
		if err := probeTiers(res); err != nil {
			return err
		}
	}
	return nil
}

// timeGraphWalks times the procedural graph walks a cold run and a warm
// submit each repeat: Validate and GraphFingerprint.
func timeGraphWalks(res *result, g core.TaskGraph) {
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_ = core.Validate(g) // Initialize has already accepted this graph
		t1 := time.Now()
		core.GraphFingerprint(g, g.Callbacks())
		t2 := time.Now()
		res.add("core.validate_ms", "ms", t1.Sub(t0).Seconds()*1e3)
		res.add("core.fingerprint_ms", "ms", t2.Sub(t1).Seconds()*1e3)
	}
}

// simulate replays the traced spans of one run through the discrete-event
// model of the MPI controller on a two-core machine and reports predicted
// over measured makespan.
func simulate(res *result, c cold, measured float64) error {
	out, err := sim.WhatIf(c.graph, c.spans, nil, sim.ShaheenII(workers))
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	res.set("sim.predicted_over_measured", "x", out["MPI"].Makespan/measured)
	return nil
}

// writeTrace writes the spans the traced pass kept in memory.
func writeTrace(dir, workload string, res *result) error {
	if res.log == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(res.log.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}
