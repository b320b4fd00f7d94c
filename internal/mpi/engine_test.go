package mpi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// workload is one graph every entry point of the controller must agree on.
type workload struct {
	name     string
	graph    core.TaskGraph
	tmap     func(ranks int) core.TaskMap
	register func(core.CallbackRegistrar) error
	initial  func() map[core.TaskId][]core.Payload
}

func reductionWorkload(t *testing.T) workload {
	g, err := graphs.NewReduction(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	return workload{
		name:     "reduction",
		graph:    g,
		tmap:     func(ranks int) core.TaskMap { return core.NewGraphMap(ranks, g) },
		register: reductionSubmission(g, nil).Register,
		initial:  func() map[core.TaskId][]core.Payload { return reductionInputs(g) },
	}
}

// relayWorkload is the reduction with callbacks that hand their inputs on: a
// callback owns its inputs, so it may sum into in[0] and return in[:1] (the
// whole of in at a leaf). The engine must not recycle a task's input window
// before its outputs are routed.
func relayWorkload(t *testing.T) workload {
	w := reductionWorkload(t)
	relay := func(in []core.Payload, _ core.TaskId) ([]core.Payload, error) {
		var sum uint64
		for _, p := range in {
			sum += getU64(p)
		}
		binary.LittleEndian.PutUint64(in[0].Data, sum)
		return in[:1], nil
	}
	w.name = "relay"
	w.register = func(c core.CallbackRegistrar) error {
		for _, cb := range []core.CallbackId{graphs.ReduceLeafCB, graphs.ReduceMidCB, graphs.ReduceRootCB} {
			if err := c.RegisterCallback(cb, relay); err != nil {
				return err
			}
		}
		return nil
	}
	return w
}

// loopWorkload is a core.Iterate loop whose body spans ranks: two leaves
// add one to their input and feed a root that sums them; the root's two
// outputs gate back into the leaves until the sum reaches 20 (iteration 3
// of at most 6), so later iterations are cancelled by dead tokens.
func loopWorkload(t testing.TB) workload {
	const cbLeaf, cbRoot core.CallbackId = 1, 2
	body := core.NewExplicitGraph([]core.Task{
		{Id: 0, Callback: cbLeaf, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{2}}},
		{Id: 1, Callback: cbLeaf, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{2}}},
		{Id: 2, Callback: cbRoot, Incoming: []core.TaskId{0, 1}, Outgoing: [][]core.TaskId{nil, nil}},
	})
	pred := func(_ int, sinks map[core.TaskId][]core.Payload) (bool, error) {
		return getU64(sinks[2][0]) >= 20, nil
	}
	ig, err := core.Iterate(body, pred, core.MaxIterations(6), core.Gate(2, 0, 0, 0), core.Gate(2, 1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	leaf := func(in []core.Payload, _ core.TaskId) ([]core.Payload, error) {
		return []core.Payload{u64(getU64(in[0]) + 1)}, nil
	}
	return workload{
		name:  "iterate",
		graph: ig,
		tmap:  func(ranks int) core.TaskMap { return core.NewIterativeMap(ranks, ig) },
		register: func(c core.CallbackRegistrar) error {
			if err := c.RegisterCallback(cbLeaf, leaf); err != nil {
				return err
			}
			if err := c.RegisterCallback(cbRoot, sumCB(2)); err != nil {
				return err
			}
			return ig.RegisterDecision(c)
		},
		initial: func() map[core.TaskId][]core.Payload {
			return map[core.TaskId][]core.Payload{core.IterId(0, 0): {u64(1)}, core.IterId(0, 1): {u64(2)}}
		},
	}
}

// memConnect is a ConnectFunc over a fresh in-memory fabric per epoch.
func memConnect(_, ranks int) ([]fabric.Transport, error) {
	fab := fabric.New(ranks)
	trs := make([]fabric.Transport, ranks)
	for i := range trs {
		trs[i] = fab
	}
	return trs, nil
}

func mergeSinks(parts []map[core.TaskId][]core.Payload) map[core.TaskId][]core.Payload {
	merged := make(map[core.TaskId][]core.Payload)
	for _, part := range parts {
		for id, ps := range part {
			merged[id] = append(merged[id], ps...)
		}
	}
	return merged
}

// askCounter counts how often the runtime asks a user's graph for a task.
type askCounter struct {
	core.TaskGraph
	asked atomic.Int64
}

func (a *askCounter) Task(id core.TaskId) (core.Task, bool) {
	a.asked.Add(1)
	return a.TaskGraph.Task(id)
}

// TestEntriesAgree runs a reduction, the same reduction with input-relaying
// callbacks and a core.Iterate loop through every way of driving the
// controller. They are all one epoch engine on one compiled plan, so every entry must produce sinks byte-identical to the
// serial reference; must ask the user's graph for each task exactly once
// (the compile — recovery epochs, rebalancing and warm submissions run on
// the plan); every ledgered entry must account each task exactly once in
// its final epoch (replayed + executed == tasks); and no arena buffer may
// stay outstanding.
func TestEntriesAgree(t *testing.T) {
	const ranks = 3
	for _, w := range []workload{reductionWorkload(t), relayWorkload(t), loopWorkload(t)} {
		w := w
		tasks := w.graph.Size()
		newCtrl := func(t *testing.T, g core.TaskGraph, opts ...Option) *Controller {
			t.Helper()
			c := New(opts...)
			if err := c.Initialize(g, w.tmap(ranks)); err != nil {
				t.Fatal(err)
			}
			if err := w.register(c); err != nil {
				t.Fatal(err)
			}
			return c
		}
		// perRank runs one single-rank entry per rank concurrently and
		// merges the rank-local sinks.
		perRank := func(t *testing.T, run func(rank int, local map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error)) map[core.TaskId][]core.Payload {
			t.Helper()
			parts := splitInitial(w.tmap(ranks), w.initial())
			out := make([]map[core.TaskId][]core.Payload, ranks)
			errs := make([]error, ranks)
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					out[r], errs[r] = run(r, parts[r])
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			return mergeSinks(out)
		}
		ledgered := func(t *testing.T, replayed, executed int) {
			t.Helper()
			if replayed+executed != tasks {
				t.Errorf("final epoch replayed %d + executed %d = %d, want task count %d", replayed, executed, replayed+executed, tasks)
			}
		}

		entries := []struct {
			name string
			run  func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload
		}{
			{"Run", func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload {
				got, err := newCtrl(t, g).Run(w.initial())
				if err != nil {
					t.Fatal(err)
				}
				return got
			}},
			{"RunRank", func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload {
				c, fab := newCtrl(t, g), fabric.New(ranks)
				return perRank(t, func(r int, local map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
					return c.RunRank(r, fab, local)
				})
			}},
			{"RunElastic/kill", func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload {
				c := newCtrl(t, g, WithRetry(core.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}))
				got, rep, err := c.RunElastic(context.Background(), ElasticOptions{
					Connect: memConnect,
					Inject: func(epoch, rank int, tr fabric.Transport) fabric.Transport {
						if epoch > 1 {
							return tr
						}
						return faultinject.Wrap(tr, rank, faultinject.Plan{KillRank: 1, KillAfter: 1})
					},
					Initial: w.initial(),
				})
				if err != nil {
					t.Fatalf("%v (report %+v)", err, rep)
				}
				if rep.Epochs != 2 || len(rep.LostShards) != 1 || rep.LostShards[0] != 1 {
					t.Errorf("one injected kill of rank 1: %+v", rep)
				}
				if rep.Replayed == 0 {
					t.Errorf("recovery epoch replayed nothing: %+v", rep)
				}
				ledgered(t, rep.Replayed, rep.Executed)
				return got
			}},
			{"RunElastic/shrink-only", func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload {
				got, rep, err := newCtrl(t, g).RunElastic(context.Background(), ElasticOptions{Connect: memConnect, Initial: w.initial()})
				if err != nil {
					t.Fatalf("%v (report %+v)", err, rep)
				}
				if rep.Epochs != 1 || rep.Fences != 0 || len(rep.LostShards) != 0 || rep.Replayed != 0 {
					t.Errorf("fault-free run: %+v", rep)
				}
				ledgered(t, rep.Replayed, rep.Executed)
				return got
			}},
			{"RunElastic", func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload {
				ms, err := NewMembership(ranks)
				if err != nil {
					t.Fatal(err)
				}
				got, rep, err := newCtrl(t, g).RunElastic(context.Background(), ElasticOptions{Connect: memConnect, Initial: w.initial(), Membership: ms})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Epochs != 1 || rep.Fences != 0 || len(rep.LostShards) != 0 {
					t.Errorf("fault-free run: %+v", rep)
				}
				ledgered(t, rep.Replayed, rep.Executed)
				return got
			}},
			{"RunMember", func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload {
				// Two forked-style epochs on one journal directory: every
				// member of {0,1,2}, then {0,2} with member 1 retired, each
				// rank a RunMember over a shared fabric with its member's
				// journaled ledger. The second epoch adopts member 1's
				// lineage and replays every task.
				c := newCtrl(t, g, WithJournal(t.TempDir()))
				epoch := func(members, retired []core.ShardId) (sinks map[core.TaskId][]core.Payload, replayed, executed int) {
					t.Helper()
					fab := fabric.New(len(members))
					out := make([]map[core.TaskId][]core.Payload, len(members))
					errs := make([]error, len(members))
					leds := make([]*core.Ledger, len(members))
					var wg sync.WaitGroup
					for l, m := range members {
						led, store, err := c.OpenMemberLedger(int(m))
						if err != nil {
							t.Fatal(err)
						}
						leds[l] = led
						wg.Add(1)
						go func(l int) {
							defer wg.Done()
							defer store.Close()
							out[l], errs[l] = c.RunMember(context.Background(), l, members, retired, fab, led, w.initial())
						}(l)
					}
					wg.Wait()
					for l, err := range errs {
						if err != nil {
							t.Fatalf("members %v rank %d: %v", members, l, err)
						}
						replayed, executed = replayed+leds[l].Replays(), executed+leds[l].Executions()
					}
					return mergeSinks(out), replayed, executed
				}
				if _, replayed, executed := epoch([]core.ShardId{0, 1, 2}, nil); replayed != 0 || executed != tasks {
					t.Errorf("first epoch replayed %d, executed %d, want 0 and %d", replayed, executed, tasks)
				}
				got, replayed, executed := epoch([]core.ShardId{0, 2}, []core.ShardId{1})
				if replayed != tasks || executed != 0 {
					t.Errorf("epoch after member 1 retired replayed %d, executed %d, want %d and 0", replayed, executed, tasks)
				}
				return got
			}},
			{"Service.Submit", func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload {
				svc, err := NewService(ranks)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				got, _, err := svc.Submit(context.Background(), Submission{Graph: g, Map: w.tmap(ranks), Register: w.register, Initial: w.initial()})
				if err != nil {
					t.Fatal(err)
				}
				return got
			}},
			{"Service.Submit/default map, one rank draining", func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload {
				svc, err := NewService(ranks)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				if err := svc.Drain(1); err != nil {
					t.Fatal(err)
				}
				got, _, err := svc.Submit(context.Background(), Submission{Graph: g, Register: w.register, Initial: w.initial()})
				if err != nil {
					t.Fatal(err)
				}
				if runs, moved := svc.HandoffCounts(); runs != 1 || moved == 0 {
					t.Errorf("hand-off off the draining rank: %d run(s), %d task(s)", runs, moved)
				}
				return got
			}},
			{"Group", func(t *testing.T, g core.TaskGraph) map[core.TaskId][]core.Payload {
				gr, err := NewGroup(g, w.tmap(ranks))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.register(gr); err != nil {
					t.Fatal(err)
				}
				return perRank(t, func(r int, local map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
					sh, err := gr.Shard(r)
					if err != nil {
						return nil, err
					}
					return sh.Run(local)
				})
			}},
		}

		ser := core.NewSerial()
		if err := ser.Initialize(w.graph, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.register(ser); err != nil {
			t.Fatal(err)
		}
		want, err := ser.Run(w.initial())
		if err != nil {
			t.Fatal(err)
		}
		for id, ps := range want {
			for _, p := range ps {
				if len(p.Data) == 0 {
					t.Fatalf("serial reference: sink %d holds an empty payload", id)
				}
			}
		}
		for _, e := range entries {
			e := e
			t.Run(w.name+"/"+e.name, func(t *testing.T) {
				g := &askCounter{TaskGraph: w.graph}
				check.Arena(t, func() { check.Sinks(t, want, e.run(t, g)) })
				if n := g.asked.Load(); n != int64(tasks) {
					t.Errorf("the runtime asked the graph for a task %d times, want once per task (%d)", n, tasks)
				}
			})
		}
	}
}

// lossy is a transport that reports the given peers lost.
type lossy struct {
	fabric.Transport
	lost []int
}

func (l lossy) LostPeers() []int { return l.lost }

// TestClassifyDead pins the one loss rule of supervised runs. reports[l]
// lists the peers logical rank l's transport reported lost; failed lists
// the ranks whose epoch ended in an error.
func TestClassifyDead(t *testing.T) {
	members := []core.ShardId{10, 11, 12, 13, 14}
	for _, tc := range []struct {
		name    string
		reports map[int][]int
		failed  []int
		want    []core.ShardId
	}{
		{"nothing reported", nil, []int{1}, nil},
		{"self-report is authoritative, errored or not", map[int][]int{2: {2}}, nil, []core.ShardId{12}},
		{"reported by rank 0, errored, silent", map[int][]int{0: {3}}, []int{3}, []core.ShardId{13}},
		{"reported but finished cleanly", map[int][]int{0: {3}}, nil, nil},
		{"reported without rank 0's corroboration", map[int][]int{1: {3}, 2: {3}}, []int{3}, nil},
		{"partition victim that reported a loss itself is kept", map[int][]int{0: {3}, 1: {3}, 3: {1}}, []int{1, 3}, nil},
		{"rank 0 suspected by a minority", map[int][]int{1: {0}, 2: {0}}, []int{0}, nil},
		{"rank 0 suspected by a majority", map[int][]int{1: {0}, 2: {0}, 4: {0}}, []int{0}, []core.ShardId{10}},
		{"out-of-range peer ids ignored", map[int][]int{0: {-1, 5, 99}}, []int{1, 2, 3, 4}, nil},
		{"several deaths sort by member", map[int][]int{0: {4, 2}, 4: {4}}, []int{2}, []core.ShardId{12, 14}},
	} {
		trs := make([]fabric.Transport, len(members))
		for l := range trs {
			trs[l] = lossy{lost: tc.reports[l]}
		}
		errs := make([]error, len(members))
		for _, l := range tc.failed {
			errs[l] = fabric.ErrPeerLost
		}
		got := classifyDead(trs, errs, members)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: dead = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunRankPreflightFailureUnblocksPeer: two controllers share one
// fabric; rank 1 is missing a callback, so its RunRank fails before any
// task runs. That failure must cancel the transport, or rank 0 — blocked
// receiving rank 1's messages — waits forever.
func TestRunRankPreflightFailureUnblocksPeer(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	m := core.NewModuloMap(2, g.Size())
	parts := splitInitial(m, reductionInputs(g))
	fab := fabric.New(2)

	healthy, broken := New(), New()
	for _, c := range []*Controller{healthy, broken} {
		if err := c.Initialize(g, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := reductionSubmission(g, nil).Register(healthy); err != nil {
		t.Fatal(err)
	}
	broken.RegisterCallback(graphs.ReduceLeafCB, sumCB(1)) // mid and root missing

	done := make(chan error, 1)
	go func() {
		_, err := healthy.RunRank(0, fab, parts[0])
		done <- err
	}()
	if _, err := broken.RunRank(1, fab, parts[1]); !errors.Is(err, core.ErrUnregisteredCallback) {
		t.Fatalf("rank 1: %v, want ErrUnregisteredCallback", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("rank 0 reported success though rank 1 never ran")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("rank 0 still blocked 2s after rank 1 failed its pre-flight")
	}
}

// TestSubmitCancelAtCompletionLeavesNoWatcher cancels each submission's
// context right as the run completes. The context watcher must be retired
// before Submit returns: afterwards it may neither cancel the released
// view nor linger as a goroutine, and the service must keep serving.
func TestSubmitCancelAtCompletionLeavesNoWatcher(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	svc, err := NewService(2, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	want := serialReduction(t, g, reductionInputs(g))
	submit := func(ctx context.Context, sub Submission) {
		t.Helper()
		got, _, err := svc.Submit(ctx, sub)
		if err == nil {
			check.Sinks(t, want, got)
		} else if !errors.Is(err, core.ErrCancelled) {
			t.Fatalf("submit: %v", err)
		}
	}
	submit(context.Background(), reductionSubmission(g, reductionInputs(g))) // warm up
	baseline := runtime.NumGoroutine()

	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		sub := reductionSubmission(g, reductionInputs(g))
		register := sub.Register
		sub.Register = func(c core.CallbackRegistrar) error {
			if err := register(c); err != nil {
				return err
			}
			// The root is the last task of the run: cancelling from inside
			// it races the cancellation against completion.
			return c.RegisterCallback(graphs.ReduceRootCB, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
				defer cancel()
				return sumCB(1)(in, id)
			})
		}
		submit(ctx, sub)
		cancel()
	}

	if err := check.Settle(baseline); err != nil {
		t.Fatalf("context watchers outlived their submissions: %v", err)
	}
	if svc.Runs() != 0 {
		t.Errorf("%d runs still attached", svc.Runs())
	}
	submit(context.Background(), reductionSubmission(g, reductionInputs(g)))
}
