package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/serve"
	"github.com/babelflow/babelflow-go/internal/trace"
)

// submission is one entry of the traffic mix.
type submission struct {
	program string
	params  serve.Params
}

func (s submission) key() string { return fmt.Sprint(s.program, s.params) }

// The mix: small prototypes and one heavy tenant, 15 to 1.
var (
	smallPrograms = []submission{
		{"reduction", serve.Params{"blocks": 64, "payload": 1024}},
		{"binaryswap", serve.Params{"blocks": 8, "payload": 1024}},
		{"kwaymerge", serve.Params{"blocks": 8, "payload": 1024}},
		{"broadcast", serve.Params{"blocks": 16, "payload": 1024}},
	}
	heavyProgram = submission{"mergetree", serve.Params{"n": 32, "blocks": 8}}
)

const mixBlock = 16 // one heavy submission in every block of this many

// mixSequence draws the program sequence from the seed. Every block of 16
// holds exactly one heavy submission at a seeded position, so the share of
// heavy work in any window is the same whatever the seed; which small
// program fills each other position is drawn freely.
func mixSequence(seed uint64, n int) []submission {
	rng := data.NewRand(mix(seed, 5))
	seq := make([]submission, 0, n+mixBlock)
	for len(seq) < n {
		heavyAt := rng.Intn(mixBlock)
		for i := 0; i < mixBlock; i++ {
			if i == heavyAt {
				seq = append(seq, heavyProgram)
			} else {
				seq = append(seq, smallPrograms[rng.Intn(len(smallPrograms))])
			}
		}
	}
	return seq[:n]
}

// references computes the serial-reference digest of every program of the
// mix once: the oracle.
func references(reg *serve.Registry) (map[string]string, error) {
	want := make(map[string]string)
	for _, s := range append([]submission{heavyProgram}, smallPrograms...) {
		d, err := reg.ReferenceDigest(s.program, s.params)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", s.program, err)
		}
		if corruptReference {
			d = "corrupted-" + d
		}
		want[s.key()] = d
	}
	return want, nil
}

// serveSetup times what a bfserve user pays before the first result:
// NewServer, the first Submit, and Wait until that run is done. Stopping
// the clock at the accepted Submit instead (10 us of goroutine start-up)
// moved by a third from one process to the next; the first completed run
// includes the same bring-up and repeats.
func serveSetup(cfg serve.Config) (time.Duration, error) {
	start := time.Now()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return 0, err
	}
	st, err := srv.Submit(smallPrograms[0].program, smallPrograms[0].params)
	if err == nil {
		st, err = srv.Wait(context.Background(), st.ID)
	}
	d := time.Since(start)
	if err == nil && st.State != serve.StateDone {
		err = fmt.Errorf("first run ended %s: %s", st.State, st.Error)
	}
	if e := srv.Close(); err == nil {
		err = e
	}
	return d, err
}

// served is one completed request of the closed loop.
type served struct {
	at             time.Time // completion
	latency, admit time.Duration
	queueWaitMs    float64
	ok             bool
	measured       bool
}

// closedLoop drives srv from two clients, each Submit -> Wait -> next, for
// warm-up + window. Client c takes entries c, c+2, ... of the sequence.
func closedLoop(srv *serve.Server, seq []submission, want map[string]string, warmup, window time.Duration) []served {
	start := time.Now()
	measureFrom, stop := start.Add(warmup), start.Add(warmup+window)
	out := make([][]served, workers)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(stop); i += workers {
				s := seq[i%len(seq)]
				t0 := time.Now()
				st, err := srv.Submit(s.program, s.params)
				t1 := time.Now()
				if err == nil {
					st, err = srv.Wait(context.Background(), st.ID)
				}
				t2 := time.Now()
				out[c] = append(out[c], served{
					at: t2, latency: t2.Sub(t0), admit: t1.Sub(t0), queueWaitMs: st.QueueWaitMs,
					ok:       err == nil && st.State == serve.StateDone && st.Digest == want[s.key()],
					measured: !t0.Before(measureFrom),
				})
			}
		}(c)
	}
	wg.Wait()
	var all []served
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

func serveConfig(reg *serve.Registry) serve.Config {
	// The defaults of bfserve, at the benchmark's fixed parallelism.
	return serve.Config{Ranks: ranks, Workers: workers, Registry: reg}
}

func measureServeMix(cfg config) (*result, error) {
	reg := serve.DefaultRegistry()
	want, err := references(reg)
	if err != nil {
		return nil, err
	}
	res := newResult()
	seq := mixSequence(cfg.seed, 1<<14)
	warmup := 2 * time.Second
	setups := 10
	if cfg.smoke {
		warmup, setups = 100*time.Millisecond, 2
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 3 // the rest of the budget goes to the two comparison lanes
	}

	// One set-up sample is the median of ten bring-ups.
	const perSample = 10
	for i := 0; i < setups; i++ {
		batch := make([]float64, perSample)
		for j := range batch {
			d, err := serveSetup(serveConfig(reg))
			if err != nil {
				return nil, err
			}
			batch[j] = d.Seconds()
		}
		res.add("setup_s", "s", median(batch))
	}

	srv, err := serve.NewServer(serveConfig(reg))
	if err != nil {
		return nil, err
	}
	all := closedLoop(srv, seq, want, warmup, window)
	metrics := srv.Metrics()
	if err := srv.Close(); err != nil {
		return nil, err
	}

	// A trial of the closed loop is one second of the window: each whole
	// second yields one throughput sample and one median-latency sample, so
	// both have a run-to-run spread like every other metric. The last,
	// partial second is dropped.
	var first time.Time
	for _, s := range all {
		if s.measured && (first.IsZero() || s.at.Before(first)) {
			first = s.at
		}
	}
	buckets := make([][]float64, int(window/time.Second))
	for _, s := range all {
		if !s.measured {
			continue
		}
		res.attempted++
		if !s.ok {
			res.failed++
			continue
		}
		res.add("serve.admit_us", "us", s.admit.Seconds()*1e6)
		res.add("serve.queue_wait_ms", "ms", s.queueWaitMs)
		if b := int(s.at.Sub(first) / time.Second); b < len(buckets) {
			buckets[b] = append(buckets[b], s.latency.Seconds())
		}
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("serve-mix: no request completed inside the window")
	}
	for _, lat := range buckets {
		res.add("runs_per_s", "runs/s", float64(len(lat)))
		res.add("run_s", "s", median(lat))
	}
	if len(buckets) == 0 { // a window under one second: smoke only
		var lat []float64
		for _, s := range all {
			if s.measured && s.ok {
				lat = append(lat, s.latency.Seconds())
			}
		}
		res.set("runs_per_s", "runs/s", float64(len(lat))/window.Seconds())
		res.set("run_s", "s", median(lat))
	}
	if cfg.trace {
		res.set("serve.shed", "count", float64(metrics.Shed))
		return res, serveLayers(res, seq, want, window)
	}
	return res, nil
}

// serveLayers drives the same mix from one client down three lanes, run
// for run: a plain warm mpi.Service, a throwaway controller per run (cold),
// and a second warm service carrying the observer and the transport
// decorator that serve.Config cannot pass through. The first two record the
// warm-versus-cold anomaly per program with nothing wrapped; the third
// gives the layer breakdown of the warm path.
func serveLayers(res *result, seq []submission, want map[string]string, window time.Duration) error {
	reg := serve.DefaultRegistry()
	plain, err := mpi.NewService(ranks, mpi.WithWorkers(workers))
	if err != nil {
		return err
	}
	defer plain.Close()
	rec := trace.NewRecorder()
	var m *meter
	traced, err := mpi.NewService(ranks, mpi.WithWorkers(workers), mpi.WithObserver(rec),
		mpi.WithTransport(func(n int) fabric.Transport { m = &meter{Transport: fabric.New(n)}; return m }))
	if err != nil {
		return err
	}
	defer traced.Close()

	// check counts one verified run.
	check := func(s submission, out map[core.TaskId][]core.Payload) error {
		digest, err := digestAndRelease(out)
		res.attempted++
		if digest != want[s.key()] {
			res.failed++
		}
		return err
	}
	var busyS, readyS, starvedS, budgetS, buildMs, initMs, calls float64
	runs := 0
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		s := seq[i%len(seq)]

		t0 := time.Now()
		sub, err := reg.Build(s.program, s.params)
		if err != nil {
			return err
		}
		t1 := time.Now()
		out, _, err := plain.Submit(context.Background(), sub)
		warm := time.Since(t1)
		if err != nil {
			return fmt.Errorf("service submit %s: %w", s.program, err)
		}
		if err := check(s, out); err != nil {
			return err
		}
		buildMs += t1.Sub(t0).Seconds() * 1e3
		res.add("mpi.service_submit_ms", "ms", warm.Seconds()*1e3)
		res.add("service_submit_ms."+s.program, "ms", warm.Seconds()*1e3)

		if sub, err = reg.Build(s.program, s.params); err != nil {
			return err
		}
		t2 := time.Now()
		ctrl := mpi.New(mpi.WithWorkers(workers))
		if err := ctrl.Initialize(sub.Graph, core.NewGraphMap(ranks, sub.Graph)); err != nil {
			return err
		}
		t3 := time.Now()
		if err := sub.Register(ctrl); err != nil {
			return err
		}
		out, err = ctrl.Run(sub.Initial)
		cold := time.Since(t2)
		if err != nil {
			return fmt.Errorf("cold one-shot %s: %w", s.program, err)
		}
		if err := check(s, out); err != nil {
			return err
		}
		initMs += t3.Sub(t2).Seconds() * 1e3
		res.add("mpi.cold_oneshot_ms", "ms", cold.Seconds()*1e3)
		res.add("cold_oneshot_ms."+s.program, "ms", cold.Seconds()*1e3)

		if sub, err = reg.Build(s.program, s.params); err != nil {
			return err
		}
		register := sub.Register
		sub.Register = func(c core.CallbackRegistrar) error {
			return register(wrapping{CallbackRegistrar: c, rec: rec})
		}
		rec.Reset()
		start := time.Now()
		out, _, err = traced.Submit(context.Background(), sub)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("traced service submit %s: %w", s.program, err)
		}
		if err := check(s, out); err != nil {
			return err
		}
		runs++
		spans := rec.Spans()
		calls += float64(len(spans))
		busy, ready, starved := occupancy(spans, workers, start, end)
		busyS += busy.Seconds()
		readyS += ready.Seconds()
		starvedS += starved.Seconds()
		budgetS += workers * end.Sub(start).Seconds()
		sum, err := trace.Summarize(sub.Graph, spans)
		if err != nil {
			return err
		}
		res.add("mpi.critical_path_s", "s", sum.CriticalPath.Seconds())
		res.add("mpi.overhead_s", "s", end.Sub(start).Seconds()-sum.CriticalPath.Seconds())
		res.add("mpi.utilization", "ratio", sum.Utilization())
		res.add("mpi.queue_wait_sum_s", "s", sum.QueueWait.Seconds())
		for _, sp := range spans {
			res.add("mpi.queue_wait_ms", "ms", sp.QueueWait.Seconds()*1e3)
		}
		if i == 0 {
			res.set("core.tasks", "count", float64(sub.Graph.Size()))
			timeGraphWalks(res, sub.Graph)
		}
	}
	if runs == 0 {
		return fmt.Errorf("serve-mix: the comparison lanes completed no run")
	}
	n := float64(runs)
	t := trafficOf(m)
	res.set("graphs.build_ms", "ms", buildMs/n)
	res.set("core.initialize_ms", "ms", initMs/n)
	res.set("fabric.msgs", "count", t.msgs/n)
	res.set("fabric.bytes", "bytes", t.bytes/n)
	res.set("fabric.send_us", "us", t.sendS*1e6/n)
	res.set("fabric.recv_wait_s", "s", t.recvWaitS/n)
	res.set("serde.bytes", "bytes", t.bytes/n)
	res.set("callback.busy_s", "s", busyS/n)
	res.set("callback.calls", "count", calls/n)
	res.set("callback.share", "ratio", busyS/budgetS)
	res.set("mpi.idle_ready_share", "ratio", readyS/budgetS)
	res.set("mpi.idle_starved_share", "ratio", starvedS/budgetS)
	res.set("send_share", "ratio", t.sendS/budgetS)
	res.set("unattributed_share", "ratio", 1-(busyS+t.sendS)/budgetS)
	return nil
}
