package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// The faults mode benchmarks the recovery path: each figure workload runs
// on 4 ranks over loopback TCP twice — once failure free (the baseline) and
// once with one peer killed on the first epoch — and BENCH_faults.json
// records the wall-clock cost of recovery, the recovery latency measured
// from the failure, and how much re-execution the lineage-ledger replay
// avoided.

// faultsResult is one workload's measurement.
type faultsResult struct {
	// BaselineMs is the failure-free wall clock.
	BaselineMs float64 `json:"baseline_ms"`
	// FaultMs is the wall clock with one peer killed on epoch 1.
	FaultMs float64 `json:"fault_ms"`
	// RecoveryMs is the wall clock from the failure to the verified result.
	RecoveryMs float64 `json:"recovery_ms"`
	// Epochs is the number of execution attempts of the fault run.
	Epochs int `json:"epochs"`
	// Replayed counts tasks served from the lineage ledger during recovery.
	Replayed int `json:"replayed_tasks"`
	// Executed counts the tasks the final epoch had to run (the rest
	// replayed); Tasks is the graph size for comparison.
	Executed int `json:"executed_tasks"`
	Tasks    int `json:"tasks"`
	// JoinMs / DrainMs (elastic rows only) measure membership latency: the
	// time from the join/drain request to the rebalanced epoch being
	// connected. HandedOff counts ledger records adopted across owners.
	JoinMs    float64 `json:"join_ms,omitempty"`
	DrainMs   float64 `json:"drain_ms,omitempty"`
	HandedOff int     `json:"handed_off_tasks,omitempty"`
}

// faultsDigestCB is a deterministic callback hashing inputs into per-slot
// digests, heavy enough (64 hash rounds) that task cost dominates setup.
func faultsDigestCB(g core.TaskGraph) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		h := sha256.New()
		var idb [8]byte
		binary.LittleEndian.PutUint64(idb[:], uint64(id))
		h.Write(idb[:])
		for _, p := range in {
			w, err := p.Wire()
			if err != nil {
				return nil, err
			}
			h.Write(w)
		}
		sum := h.Sum(nil)
		for i := 0; i < 64; i++ {
			s := sha256.Sum256(sum)
			sum = s[:]
		}
		t, _ := g.Task(id)
		out := make([]core.Payload, len(t.Outgoing))
		for s := range out {
			buf := make([]byte, len(sum)+1)
			copy(buf, sum)
			buf[len(sum)] = byte(s)
			out[s] = core.Buffer(buf)
		}
		return out, nil
	}
}

func faultsInputs(g core.TaskGraph) map[core.TaskId][]core.Payload {
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range g.TaskIds() {
		t, _ := g.Task(id)
		for _, in := range t.Incoming {
			if in == core.ExternalInput {
				b := make([]byte, 8)
				binary.LittleEndian.PutUint64(b, uint64(id))
				initial[id] = append(initial[id], core.Buffer(b))
			}
		}
	}
	return initial
}

// measureFaults runs the workload once failure free and once with a kill.
func measureFaults(g core.TaskGraph, ranks int, plan faultinject.Plan) (faultsResult, error) {
	run := func(inject mpi.InjectFunc) (time.Duration, mpi.RecoveryReport, error) {
		m := core.NewGraphMap(ranks, g)
		ctrl := mpi.New(mpi.WithRetry(core.RetryPolicy{
			MaxAttempts: ranks,
			BaseBackoff: 5 * time.Millisecond,
		}))
		if err := ctrl.Initialize(g, m); err != nil {
			return 0, mpi.RecoveryReport{}, err
		}
		cb := faultsDigestCB(g)
		for _, cid := range g.Callbacks() {
			if err := ctrl.RegisterCallback(cid, cb); err != nil {
				return 0, mpi.RecoveryReport{}, err
			}
		}
		fp := ctrl.Fingerprint()
		connect := func(epoch, nranks int) ([]fabric.Transport, error) {
			fabs, err := wire.Mesh(nranks, wire.Options{
				Fingerprint:       fp,
				Epoch:             epoch,
				HeartbeatInterval: 50 * time.Millisecond,
				HeartbeatTimeout:  time.Second,
			})
			if err != nil {
				return nil, err
			}
			trs := make([]fabric.Transport, len(fabs))
			for i, f := range fabs {
				trs[i] = f
			}
			return trs, nil
		}
		start := time.Now()
		out, rep, err := ctrl.RunRecover(context.Background(), mpi.RecoverOptions{
			Connect: connect,
			Inject:  inject,
			Initial: faultsInputs(g),
		})
		elapsed := time.Since(start)
		for _, ps := range out {
			for _, p := range ps {
				p.Release()
			}
		}
		return elapsed, rep, err
	}

	baseline, _, err := run(nil)
	if err != nil {
		return faultsResult{}, fmt.Errorf("baseline: %w", err)
	}
	faultWall, rep, err := run(func(epoch, rank int, tr fabric.Transport) fabric.Transport {
		if epoch != 1 {
			return tr
		}
		return faultinject.Wrap(tr, rank, plan)
	})
	if err != nil {
		return faultsResult{}, fmt.Errorf("fault run: %w", err)
	}
	return faultsResult{
		BaselineMs: float64(baseline.Microseconds()) / 1000,
		FaultMs:    float64(faultWall.Microseconds()) / 1000,
		RecoveryMs: float64(rep.RecoveryTime.Microseconds()) / 1000,
		Epochs:     rep.Epochs,
		Replayed:   rep.Replayed,
		Executed:   rep.Executed,
		Tasks:      g.Size(),
	}, nil
}

// measureElastic runs the workload once failure free on the starting
// member set (the baseline) and once with a membership event fired from
// inside the nth callback execution — gated to tasks the base map places
// on onShard when it is non-negative, so a drain provably has lineage to
// hand off. The elastic run's report carries the join/drain latency
// (request to running rebalanced epoch) and the adopted-lineage count.
func measureElastic(g core.TaskGraph, ranks int, onShard core.ShardId, nth int64, event func(*mpi.Membership)) (faultsResult, error) {
	run := func(ms *mpi.Membership, wrap func(core.Callback) core.Callback) (time.Duration, mpi.ElasticReport, error) {
		m := core.NewGraphMap(ranks, g)
		ctrl := mpi.New(mpi.WithRetry(core.RetryPolicy{
			MaxAttempts: ranks,
			BaseBackoff: 5 * time.Millisecond,
		}))
		if err := ctrl.Initialize(g, m); err != nil {
			return 0, mpi.ElasticReport{}, err
		}
		cb := faultsDigestCB(g)
		if wrap != nil {
			cb = wrap(cb)
		}
		for _, cid := range g.Callbacks() {
			if err := ctrl.RegisterCallback(cid, cb); err != nil {
				return 0, mpi.ElasticReport{}, err
			}
		}
		fp := ctrl.Fingerprint()
		connect := func(epoch, nranks int) ([]fabric.Transport, error) {
			fabs, err := wire.Mesh(nranks, wire.Options{
				Fingerprint:       fp,
				Epoch:             epoch,
				HeartbeatInterval: 50 * time.Millisecond,
				HeartbeatTimeout:  time.Second,
			})
			if err != nil {
				return nil, err
			}
			trs := make([]fabric.Transport, len(fabs))
			for i, f := range fabs {
				trs[i] = f
			}
			return trs, nil
		}
		start := time.Now()
		out, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
			Connect:    connect,
			Initial:    faultsInputs(g),
			Membership: ms,
		})
		elapsed := time.Since(start)
		for _, ps := range out {
			for _, p := range ps {
				p.Release()
			}
		}
		return elapsed, rep, err
	}

	steady, err := mpi.NewMembership(ranks)
	if err != nil {
		return faultsResult{}, err
	}
	baseline, _, err := run(steady, nil)
	if err != nil {
		return faultsResult{}, fmt.Errorf("baseline: %w", err)
	}

	ms, err := mpi.NewMembership(ranks)
	if err != nil {
		return faultsResult{}, err
	}
	gate := core.NewGraphMap(ranks, g)
	wrap := func(cb core.Callback) core.Callback {
		var count atomic.Int64
		var once sync.Once
		return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
			if (onShard < 0 || gate.Shard(id) == onShard) && count.Add(1) == nth {
				once.Do(func() {
					event(ms)
					// Park the triggering task so the fence provably lands
					// mid-epoch instead of racing the epoch's completion.
					time.Sleep(50 * time.Millisecond)
				})
			}
			return cb(in, id)
		}
	}
	wall, rep, err := run(ms, wrap)
	if err != nil {
		return faultsResult{}, fmt.Errorf("elastic run: %w", err)
	}
	return faultsResult{
		BaselineMs: float64(baseline.Microseconds()) / 1000,
		FaultMs:    float64(wall.Microseconds()) / 1000,
		RecoveryMs: float64(rep.RecoveryTime.Microseconds()) / 1000,
		Epochs:     rep.Epochs,
		Replayed:   rep.Replayed,
		Executed:   rep.Executed,
		Tasks:      g.Size(),
		JoinMs:     float64(rep.JoinLatency.Microseconds()) / 1000,
		DrainMs:    float64(rep.DrainLatency.Microseconds()) / 1000,
		HandedOff:  rep.HandedOff,
	}, nil
}

// runFaultsBench measures the recovery benchmarks and rewrites the JSON
// report at path, preserving an existing baseline_seed section.
func runFaultsBench(path string) error {
	red, err := graphs.NewReduction(64, 2)
	if err != nil {
		return err
	}
	kwm, err := graphs.NewKWayMerge(32, 2)
	if err != nil {
		return err
	}
	bsw, err := graphs.NewBinarySwap(16)
	if err != nil {
		return err
	}
	workloads := []struct {
		name string
		g    core.TaskGraph
	}{
		{"reduction-64", red},
		{"kwaymerge-32", kwm},
		{"binaryswap-16", bsw},
	}
	const ranks = 4
	plan := faultinject.Plan{KillRank: 1, KillAfter: 1, Delay: 100 * time.Microsecond}

	current := make(map[string]faultsResult, len(workloads))
	for _, w := range workloads {
		res, err := measureFaults(w.g, ranks, plan)
		if err != nil {
			return fmt.Errorf("bfbench: %s: %w", w.name, err)
		}
		current[w.name] = res
		fmt.Printf("%-16s baseline %8.1f ms  with-fault %8.1f ms  recovery %8.1f ms  epochs=%d replayed=%d/%d executed=%d\n",
			w.name, res.BaselineMs, res.FaultMs, res.RecoveryMs, res.Epochs, res.Replayed, res.Tasks, res.Executed)
	}

	// Elastic rows: the same digest workload with a live membership event
	// mid-run — two ranks joining a 2-rank mesh, and one member of a 4-rank
	// mesh draining with shard hand-off. The baseline is the event-free run
	// on the starting member set.
	elastic := []struct {
		name    string
		g       core.TaskGraph
		ranks   int
		onShard core.ShardId
		nth     int64
		event   func(*mpi.Membership)
	}{
		{"elastic-join-2to4", kwm, 2, -1, 3, func(ms *mpi.Membership) {
			ms.Join()
			ms.Join()
		}},
		// Fire from the 2nd execution of a shard-3 task: its first task's
		// lineage is already in the ledger, so the hand-off is non-empty.
		{"elastic-drain-4to3", kwm, 4, 3, 2, func(ms *mpi.Membership) {
			if err := ms.Drain(3); err != nil {
				panic(err)
			}
		}},
	}
	for _, w := range elastic {
		res, err := measureElastic(w.g, w.ranks, w.onShard, w.nth, w.event)
		if err != nil {
			return fmt.Errorf("bfbench: %s: %w", w.name, err)
		}
		current[w.name] = res
		fmt.Printf("%-16s baseline %8.1f ms  elastic %8.1f ms  join %6.1f ms  drain %6.1f ms  epochs=%d handed-off=%d\n",
			w.name, res.BaselineMs, res.FaultMs, res.JoinMs, res.DrainMs, res.Epochs, res.HandedOff)
	}

	report := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &report); err != nil {
			return fmt.Errorf("bfbench: existing %s is not valid JSON: %w", path, err)
		}
	}
	cur, err := json.Marshal(current)
	if err != nil {
		return err
	}
	report["current"] = cur
	if _, ok := report["baseline_seed"]; !ok {
		report["baseline_seed"] = cur
	}
	if _, ok := report["note"]; !ok {
		note, _ := json.Marshal(fmt.Sprintf(
			"Recovery benchmarks: figure workloads on 4 ranks over loopback TCP, one peer killed on epoch 1, recovered via lineage-ledger replay; baseline is the same run failure free. Measured %s. Regenerate current with: go run ./cmd/bfbench -faults",
			time.Now().Format("2006-01-02")))
		report["note"] = note
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
