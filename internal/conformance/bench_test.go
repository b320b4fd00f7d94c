package conformance

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/sim"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// The engine benchmarks: scheduler makespan per dispatch discipline, the
// cost of recovering from a killed peer or a membership change, and the
// per-iteration price of the loop combinator. Each row reports its figures
// through b.ReportMetric (means over b.N) and checks every run against the
// serial reference. make perf-smoke runs each row once:
//
//	go test -run '^$' -bench 'SchedulerModes|Recovery|IterateOverhead' -benchtime 1x ./internal/conformance

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkSchedulerModes runs two figure workloads on the real MPI
// controller (4 ranks, 4 workers) with callbacks that sleep for the sim
// cost model's task duration — sleeps, not spins, so the comparison holds
// on loaded or single-core machines — under every schedMode. The balanced
// compositing reduction (Fig. 10e) barely cares about dispatch order. The
// merge tree (Fig. 2) puts its feature-dense blocks, six times costlier, on
// one rank: the paper's load-imbalanced local computation under static
// placement, where pinned workers leave that rank the straggler and
// stealing drains it from the idle ranks. speedup_x is fifo over
// priority_steal.
func BenchmarkSchedulerModes(b *testing.B) {
	const ranks, workers, hotRank, hotFactor = 4, 4, 3, 6
	comp, err := sim.CompositingReductionWorkload(16, 128, 128, 0.004)
	if err != nil {
		b.Fatal(err)
	}
	mt, err := sim.MergeTreeWorkload(16, 2, 64)
	if err != nil {
		b.Fatal(err)
	}
	hot, cost := core.NewGraphMap(ranks, mt.Graph), mt.TaskCost
	mt.TaskCost = func(t core.Task) float64 {
		if t.Callback == mergetree.CBLocal && hot.Shard(t.Id) == hotRank {
			return cost(t) * hotFactor
		}
		return cost(t)
	}
	for _, wl := range []struct {
		name string
		w    sim.Workload
	}{{"balanced_compositing", comp}, {"imbalanced_mergetree", mt}} {
		b.Run(wl.name, func(b *testing.B) {
			g, mix := wl.w.Graph, mixCallback(wl.w.Graph)
			ref := serialReference(b, g, mix)
			sleepy := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
				t, _ := g.Task(id)
				time.Sleep(time.Duration(wl.w.TaskCost(t) * float64(time.Second)))
				return mix(in, id)
			}
			m := core.NewGraphMap(ranks, g)
			spent := make([]time.Duration, len(schedModes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, mode := range schedModes {
					c := mpi.New(append([]mpi.Option{mpi.WithWorkers(workers)}, mode.opts...)...)
					if err := c.Initialize(g, m); err != nil {
						b.Fatal(err)
					}
					if err := registerAll(g, sleepy)(c); err != nil {
						b.Fatal(err)
					}
					initial := externalInputsFor(g)
					start := time.Now()
					out, err := c.Run(initial)
					spent[k] += time.Since(start)
					if err != nil {
						b.Fatalf("%s: %v", mode.name, err)
					}
					check.Sinks(b, ref.Sinks, out)
				}
			}
			for k, mode := range schedModes {
				b.ReportMetric(millis(spent[k])/float64(b.N), mode.name+"_ms")
			}
			b.ReportMetric(float64(spent[0])/float64(spent[len(spent)-1]), "speedup_x")
		})
	}
}

// BenchmarkRecovery prices fault tolerance over loopback TCP. The kill rows
// run each workload on 4 ranks twice per iteration: clean (baseline_ms) and
// with rank 1 killed after its first inter-rank send on the first epoch
// (fault_ms), recovered by lineage-ledger replay. The elastic rows replace
// the kill with a membership event fired from inside a running task: two
// ranks joining a 2-rank mesh, or member 3 of 4 draining with its lineage
// handed off. Every run must pass the checker's elastic invariants (the
// timed wall clock includes that check); a kill must evict its victim, a
// drain must hand lineage off.
func BenchmarkRecovery(b *testing.B) {
	red, err := graphs.NewReduction(64, 2)
	if err != nil {
		b.Fatal(err)
	}
	kwm, err := graphs.NewKWayMerge(32, 2)
	if err != nil {
		b.Fatal(err)
	}
	bsw, err := graphs.NewBinarySwap(16)
	if err != nil {
		b.Fatal(err)
	}
	const victim = 1
	kill := injectOnFirstEpoch(faultinject.Plan{KillRank: victim, KillAfter: 1, Delay: 100 * time.Microsecond})
	join := func(cb core.Callback, _ core.TaskMap, ms *mpi.Membership) core.Callback {
		return triggerAfter(cb, 3, func() { ms.Join(); ms.Join() })
	}
	// A refused drain fences nothing, which the row's check catches.
	drain := func(cb core.Callback, m core.TaskMap, ms *mpi.Membership) core.Callback {
		return triggerOnShard(cb, m, 3, 2, func() { _ = ms.Drain(3) })
	}
	for _, row := range []struct {
		name   string
		g      core.TaskGraph
		ranks  int
		inject mpi.InjectFunc
		event  func(core.Callback, core.TaskMap, *mpi.Membership) core.Callback
	}{
		{"reduction-64", red, 4, kill, nil},
		{"kwaymerge-32", kwm, 4, kill, nil},
		{"binaryswap-16", bsw, 4, kill, nil},
		{"elastic-join-2to4", kwm, 2, nil, join},
		{"elastic-drain-4to3", kwm, 4, nil, drain},
	} {
		b.Run(row.name, func(b *testing.B) {
			cb := mixCallback(row.g)
			ref := serialReference(b, row.g, cb)
			var clean, fault time.Duration
			reps := make([]mpi.ElasticReport, b.N)
			b.ResetTimer()
			for i := range reps {
				d, _ := runRecovery(b, row.g, row.ranks, cb, ref, nil, nil)
				clean += d
				faulty, ms := cb, (*mpi.Membership)(nil)
				if row.event != nil {
					var err error
					if ms, err = mpi.NewMembership(row.ranks); err != nil {
						b.Fatal(err)
					}
					faulty = row.event(cb, pinnedMap(row.ranks, row.g), ms)
				}
				d, reps[i] = runRecovery(b, row.g, row.ranks, faulty, ref, ms, row.inject)
				fault += d
				switch rep := reps[i]; {
				case row.inject != nil && !slices.Contains(rep.LostShards, victim):
					b.Fatalf("lost shards %v do not include killed rank %d", rep.LostShards, victim)
				case row.event != nil && (rep.Fences < 1 || len(rep.Joined)+len(rep.Drained) == 0):
					b.Fatalf("membership event did not fence the epoch (report %+v)", rep)
				case len(rep.Drained) > 0 && rep.HandedOff == 0:
					b.Fatalf("drain handed off no lineage (report %+v)", rep)
				}
			}
			reportRecovery(b, row.g.Size(), clean, fault, reps)
		})
	}
}

// runRecovery runs g once under RunElastic on ranks loopback-TCP ranks,
// placed by pinnedMap so the kill point fires, and checks it against ref
// on the elastic invariants.
func runRecovery(b *testing.B, g core.TaskGraph, ranks int, cb core.Callback, ref check.Reference, ms *mpi.Membership, inject mpi.InjectFunc) (time.Duration, mpi.ElasticReport) {
	b.Helper()
	e := elasticController(b, g, pinnedMap(ranks, g), cb, wire.TierTCP, nil)
	start := time.Now()
	rep := e.run(b, ref, mpi.ElasticOptions{Inject: inject, Initial: externalInputsFor(g), Membership: ms})
	return time.Since(start), rep
}

// reportRecovery reports one row's means over b.N: the clean and the
// faulted wall clock, and what the faulted runs' reports recorded.
func reportRecovery(b *testing.B, tasks int, clean, fault time.Duration, reps []mpi.ElasticReport) {
	var recovery, join, drain time.Duration
	var epochs, replayed, executed, handedOff int
	for _, r := range reps {
		recovery += r.RecoveryTime
		join += r.JoinLatency
		drain += r.DrainLatency
		epochs += r.Epochs
		replayed += r.Replayed
		executed += r.Executed
		handedOff += r.HandedOff
	}
	n := float64(len(reps))
	b.ReportMetric(millis(clean)/n, "baseline_ms")
	b.ReportMetric(millis(fault)/n, "fault_ms")
	b.ReportMetric(millis(recovery)/n, "recovery_ms")
	b.ReportMetric(float64(epochs)/n, "epochs")
	b.ReportMetric(float64(replayed)/n, "replayed")
	b.ReportMetric(float64(executed)/n, "executed")
	b.ReportMetric(float64(tasks), "tasks")
	if join > 0 {
		b.ReportMetric(millis(join)/n, "join_ms")
	}
	if drain > 0 {
		b.ReportMetric(millis(drain)/n, "drain_ms")
		b.ReportMetric(float64(handedOff)/n, "handed_off")
	}
}

// chainCB is the pass-through callback of every chain task.
const chainCB core.CallbackId = 1

// chain builds copies of a length-task line end to end: an external input
// into task 0, task j feeding j+1, the last task a sink. One copy is the
// loop body; loops copies are the loop unrolled by hand.
func chain(length, copies int) *core.ExplicitGraph {
	n := length * copies
	tasks := make([]core.Task, n)
	for j := range tasks {
		t := core.Task{Id: core.TaskId(j), Callback: chainCB,
			Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{nil}}
		if j > 0 {
			t.Incoming = []core.TaskId{core.TaskId(j - 1)}
		}
		if j < n-1 {
			t.Outgoing = [][]core.TaskId{{core.TaskId(j + 1)}}
		}
		tasks[j] = t
	}
	return core.NewExplicitGraph(tasks)
}

// bump copies its input forward, bumping the first byte so every hop does
// a little real work.
func bump(in []core.Payload, _ core.TaskId) ([]core.Payload, error) {
	b := append([]byte(nil), in[0].Data...)
	b[0]++
	return []core.Payload{core.Buffer(b)}, nil
}

// BenchmarkIterateOverhead prices the loop combinator: a chain iterated
// under core.Iterate — a decision task, conditional routing and the
// predicate per iteration, which never converges, so every iteration pays
// full price — against the same chain unrolled by hand into a static DAG,
// one cold 4-worker MPI run of each per b.N, interleaved so background
// noise hits both. overhead_pct is the combinator's cost over the static
// unroll, per_iteration_overhead_ms the same per loop.
func BenchmarkIterateOverhead(b *testing.B) {
	for _, w := range []struct{ length, loops int }{{16, 8}, {64, 8}, {16, 32}} {
		b.Run(fmt.Sprintf("chain-%dx%d", w.length, w.loops), func(b *testing.B) {
			never := func(int, map[core.TaskId][]core.Payload) (bool, error) { return false, nil }
			ig, err := core.Iterate(chain(w.length, 1), never,
				core.MaxIterations(w.loops), core.Gate(core.TaskId(w.length-1), 0, 0, 0))
			if err != nil {
				b.Fatal(err)
			}
			static := chain(w.length, w.loops)
			variants := []struct {
				g   core.TaskGraph
				m   core.TaskMap
				reg func(core.CallbackRegistrar) error
			}{
				{ig, core.NewIterativeMap(4, ig), func(c core.CallbackRegistrar) error {
					if err := c.RegisterCallback(chainCB, bump); err != nil {
						return err
					}
					return ig.RegisterDecision(c)
				}},
				{static, core.NewGraphMap(4, static), registerAll(static, bump)},
			}
			input := func() map[core.TaskId][]core.Payload {
				return map[core.TaskId][]core.Payload{0: {core.Buffer(make([]byte, 64))}}
			}
			spent := make([]time.Duration, len(variants))
			refs := make([]check.Reference, len(variants))
			for k, v := range variants {
				refs[k] = check.Serial(b, v.g, v.reg, input())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, v := range variants {
					c := mpi.New(mpi.WithWorkers(4))
					if err := c.Initialize(v.g, v.m); err != nil {
						b.Fatal(err)
					}
					if err := v.reg(c); err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					out, err := c.Run(input())
					spent[k] += time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					check.Sinks(b, refs[k].Sinks, out)
				}
			}
			iter, stat := millis(spent[0])/float64(b.N), millis(spent[1])/float64(b.N)
			b.ReportMetric(iter, "iterate_ms")
			b.ReportMetric(stat, "static_ms")
			b.ReportMetric((iter-stat)/float64(w.loops), "per_iteration_overhead_ms")
			b.ReportMetric(100*(iter-stat)/stat, "overhead_pct")
		})
	}
}
