package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/trace"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// cold is the timing of one cold dataflow execution.
type cold struct {
	// setup is everything a user pays before the first Run: graph
	// constructor and task map (build), Initialize, callback registration,
	// InitialInputs, and transport bring-up (bootstrap). run is the Run /
	// RunRank call until all sinks are returned.
	setup, run                   time.Duration
	build, initialize, bootstrap time.Duration
	digest                       string

	// Filled on traced runs only.
	graph      core.TaskGraph
	spans      []trace.Span
	start, end time.Time
	traffic    traffic
}

// tracing is what a traced run is given; nil runs the plain path with no
// wrapper, observer or decorator installed.
type tracing struct {
	log   *spanLog    // non-nil: also write this run's spans to the trace
	probe *serdeProbe // non-nil: this is the serde probe run
	trial int
	run   int
}

// once performs one cold execution of the dataflow the way bfrun does, and
// verifies nothing: the caller compares the digest outside the timed window.
func (o *oneShot) once(build func() (*dataflow, error), tr *tracing) (cold, error) {
	var c cold
	var rec *trace.Recorder
	var meters []*meter
	metered := func(t fabric.Transport) fabric.Transport {
		if tr == nil {
			return t
		}
		m := &meter{Transport: t, log: tr.log}
		meters = append(meters, m)
		return m
	}

	t0 := time.Now()
	df, err := build()
	if err != nil {
		return c, err
	}
	t1 := time.Now()
	perRank := workers
	if o.overWire {
		perRank = workers / ranks
	}
	opts := []mpi.Option{mpi.WithWorkers(perRank)}
	if tr != nil {
		rec = trace.NewRecorder()
		opts = append(opts, mpi.WithObserver(rec))
		if !o.overWire {
			opts = append(opts, mpi.WithTransport(func(n int) fabric.Transport { return metered(fabric.New(n)) }))
		}
	}
	ctrl := mpi.New(opts...)
	if err := ctrl.Initialize(df.graph, df.tmap); err != nil {
		return c, err
	}
	t2 := time.Now()
	var registrar core.CallbackRegistrar = ctrl
	if tr != nil {
		registrar = wrapping{CallbackRegistrar: ctrl, rec: rec, probe: tr.probe}
	}
	if err := df.register(registrar); err != nil {
		return c, err
	}
	t3 := time.Now()
	initial, err := df.initial()
	if err != nil {
		return c, err
	}
	t4 := time.Now()
	var mesh []*wire.Fabric
	if o.overWire {
		opt := ctrl.WireOptions()
		opt.Tier = o.tier
		if mesh, err = wire.Mesh(ranks, opt); err != nil {
			return c, err
		}
	}
	t5 := time.Now()

	var out map[core.TaskId][]core.Payload
	if o.overWire {
		views := make([]fabric.Transport, ranks)
		for r := range views {
			views[r] = metered(mesh[r])
		}
		t5 = time.Now() // decorating the mesh is the benchmark's cost, not the user's
		out, err = runRanks(ctrl, df.tmap, views, initial)
	} else {
		out, err = ctrl.Run(initial)
	}
	t6 := time.Now()
	if e := shutdown(mesh); e != nil && err == nil {
		err = e
	}
	if err != nil {
		return c, err
	}

	c.build, c.initialize, c.bootstrap = t1.Sub(t0), t2.Sub(t1), t5.Sub(t4)
	c.setup, c.run = t5.Sub(t0), t6.Sub(t5)
	if c.digest, err = digestAndRelease(out); err != nil {
		return c, err
	}
	if tr != nil {
		c.graph, c.spans, c.start, c.end = df.graph, rec.Spans(), t5, t6
		c.traffic = trafficOf(meters...)
		if tr.log != nil {
			tr.log.writeRun(o.name, tr, c, [6]time.Time{t0, t1, t2, t3, t4, t5})
		}
	}
	return c, nil
}

// shutdown drains every rank of a mesh at once: each waits for its peers'
// goodbyes, as the processes of a fleet would.
func shutdown(mesh []*wire.Fabric) error {
	errs := make([]error, len(mesh))
	var wg sync.WaitGroup
	for r, f := range mesh {
		wg.Add(1)
		go func(r int, f *wire.Fabric) {
			defer wg.Done()
			errs[r] = f.Shutdown(30 * time.Second)
		}(r, f)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("mesh shutdown, rank %d: %w", r, err)
		}
	}
	return nil
}

// runRanks drives one RunRank per rank over the rank's own transport: the
// multi-process execution shape, in one process.
func runRanks(ctrl *mpi.Controller, tmap core.TaskMap, views []fabric.Transport, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	parts := make([]map[core.TaskId][]core.Payload, len(views))
	for r := range parts {
		parts[r] = make(map[core.TaskId][]core.Payload)
	}
	for id, ps := range initial {
		parts[tmap.Shard(id)][id] = ps
	}
	results := make([]map[core.TaskId][]core.Payload, len(views))
	errs := make([]error, len(views))
	var wg sync.WaitGroup
	for r := range views {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = ctrl.RunRank(r, views[r], parts[r])
		}(r)
	}
	wg.Wait()
	out := make(map[core.TaskId][]core.Payload)
	for r, res := range results {
		if errs[r] != nil {
			return nil, fmt.Errorf("rank %d: %w", r, errs[r])
		}
		for id, ps := range res {
			out[id] = ps
		}
	}
	return out, nil
}

// writeRun adds one run's spans to the trace: run -> {setup.*, rank r ->
// task -> callback, send under the task that sent, recv-wait under the
// rank}.
func (l *spanLog) writeRun(workload string, tr *tracing, c cold, t [6]time.Time) {
	runID := tr.trial*1000 + tr.run + 1
	root := l.add(0, runID, fmt.Sprintf("%s trial %d run %d", workload, tr.trial, tr.run), t[0], c.end)
	for i, name := range []string{"setup.graph", "setup.initialize", "setup.register", "setup.inputs", "setup.transport"} {
		l.add(root, runID, name, t[i], t[i+1])
	}
	exec := l.add(root, runID, "run", c.start, c.end)
	rankSpan := make(map[int]int)
	rankOf := func(r int) int {
		if id, ok := rankSpan[r]; ok {
			return id
		}
		id := l.add(exec, runID, fmt.Sprintf("rank %d", r), c.start, c.end)
		rankSpan[r] = id
		return id
	}
	taskSpan := make(map[int64]int, len(c.spans))
	for _, s := range c.spans {
		task := l.add(rankOf(int(s.Shard)), runID, fmt.Sprintf("task %d", s.Task), s.Start.Add(-s.QueueWait), s.End)
		l.add(task, runID, fmt.Sprintf("callback %d", s.Callback), s.Start, s.End)
		taskSpan[int64(s.Task)] = task
	}
	sends, waits := l.takePending()
	for _, p := range sends {
		parent, ok := taskSpan[p.key]
		if !ok {
			parent = exec
		}
		l.add(parent, runID, "send", p.start, p.end)
	}
	for _, p := range waits {
		l.add(rankOf(int(p.key)), runID, "recv-wait", p.start, p.end)
	}
}

// trial is K back-to-back cold executions; its values are per-run means.
type trialResult struct {
	setupS, runS float64
	failed       int
	runs         []cold
}

func (o *oneShot) trial(build func() (*dataflow, error), want string, k int, tr *tracing) (trialResult, error) {
	var t trialResult
	for i := 0; i < k; i++ {
		if tr != nil {
			tr.run = i
		}
		c, err := o.once(build, tr)
		if err != nil {
			return t, err
		}
		if c.digest != want {
			t.failed++
		}
		t.setupS += c.setup.Seconds() / float64(k)
		t.runS += c.run.Seconds() / float64(k)
		t.runs = append(t.runs, c)
		if tr != nil {
			tr.log = nil // one fully written run per trial is enough
		}
	}
	return t, nil
}

// serialRun runs the same inputs once on the single-threaded reference
// controller: the oracle of every measured run, and the baseline lane.
func serialRun(build func() (*dataflow, error)) (time.Duration, string, error) {
	return runOn(core.NewSerial(), build)
}

// measure runs the trial protocol on one one-shot workload.
func (o *oneShot) measure(cfg config) (*result, error) {
	build := o.gen(cfg.seed, cfg.smoke)
	_, want, err := serialRun(build)
	if err != nil {
		return nil, err
	}
	if corruptReference {
		want = "corrupted-" + want
	}
	k := o.k
	if cfg.smoke {
		k = 1
	}
	res := newResult()
	// One warm-up trial: the serial reference above has already run every
	// callback once.
	if _, err := o.trial(build, want, k, nil); err != nil {
		return nil, err
	}
	if cfg.trace {
		return res, o.measureLayers(cfg, build, want, k, res)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		t, err := o.trial(build, want, k, nil)
		if err != nil {
			return nil, err
		}
		res.attempted += k
		res.failed += t.failed
		res.add("run_s", "s", t.runS)
		res.add("setup_s", "s", t.setupS)
		res.add("runs_per_s", "runs/s", 1/(t.runS+t.setupS))
	}
	return res, nil
}

// memMark is the process's cumulative heap allocation at one instant.
type memMark struct{ bytes, objects uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.Mallocs}
}
