package conformance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// injectOnFirstEpoch arms the plan's faults on the first epoch only: the
// retry epochs run clean, as a restarted process would.
func injectOnFirstEpoch(plan faultinject.Plan) mpi.InjectFunc {
	return func(epoch, rank int, tr fabric.Transport) fabric.Transport {
		if epoch != 1 {
			return tr
		}
		return faultinject.Wrap(tr, rank, plan)
	}
}

// TestFaultReplayConformance is the recovery conformance sweep of the
// acceptance criteria: each figure workload runs on 4 ranks over loopback
// TCP with one peer killed deterministically — the kill point sweeping the
// victim's outbound message indices — and the recovered sinks must be
// byte-identical to the serial reference.
func TestFaultReplayConformance(t *testing.T) {
	mk := func(g core.TaskGraph, err error) core.TaskGraph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := map[string]core.TaskGraph{
		"reduction":  mk(graphAsTaskGraph(graphs.NewReduction(8, 2))),
		"binaryswap": mk(graphAsTaskGraph(graphs.NewBinarySwap(8))),
		"kwaymerge":  mk(graphAsTaskGraph(graphs.NewKWayMerge(8, 2))),
	}
	const ranks = 4
	for name, g := range cases {
		for killAfter := 0; killAfter < 3; killAfter++ {
			name, g, killAfter := name, g, killAfter
			victim := 1 + killAfter%(ranks-1) // never rank 0, varies with the kill point
			t.Run(fmt.Sprintf("%s/kill_rank%d_after%d", name, victim, killAfter), func(t *testing.T) {
				t.Parallel()
				cb := mixCallback(g)
				initial := externalInputsFor(g)
				want := serialReference(t, g, cb, initial)

				m := core.NewGraphMap(ranks, g)
				ctrl, connect := elasticController(t, g, m, cb, wire.TierAuto, nil)
				got, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
					Connect: connect,
					Inject: injectOnFirstEpoch(faultinject.Plan{
						KillRank:  victim,
						KillAfter: killAfter,
						Delay:     time.Millisecond,
					}),
					Initial: initial,
				})
				if err != nil {
					t.Fatalf("RunElastic: %v (report %+v)", err, rep)
				}
				assertSameSinks(t, want, got)
				if rep.Epochs > 1 {
					// The kill fired: the victim must be on the casualty list
					// and recovery must have replayed from the ledgers rather
					// than recomputing everything from scratch.
					found := false
					for _, s := range rep.LostShards {
						if s == core.ShardId(victim) {
							found = true
						}
					}
					if !found {
						t.Errorf("lost shards %v do not include killed rank %d", rep.LostShards, victim)
					}
				}
				t.Logf("epochs=%d lost=%v replayed=%d executed=%d recovery=%v",
					rep.Epochs, rep.LostShards, rep.Replayed, rep.Executed, rep.RecoveryTime)
			})
		}
	}
}

// TestFaultDuplicateDelivery redelivers every second inter-rank message
// with its original sequence number: the receiver-side dedup of the
// fault-tolerant path must drop the copies, keeping the sinks byte-identical
// to serial with no retry epoch. A counter under the injector checks that
// copies really reached the wire.
func TestFaultDuplicateDelivery(t *testing.T) {
	g, err := graphs.NewKWayMerge(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb := mixCallback(g)
	initial := externalInputsFor(g)
	want := serialReference(t, g, cb, initial)

	m := core.NewGraphMap(4, g)
	ctrl, connect := elasticController(t, g, m, cb, wire.TierAuto, nil)
	var copies atomic.Int64
	got, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
		Connect: connect,
		Inject: func(epoch, rank int, tr fabric.Transport) fabric.Transport {
			counted := &copyCounter{Transport: tr, seen: make(map[uint64]bool), copies: &copies}
			return faultinject.Wrap(counted, rank, faultinject.Plan{KillRank: -1, DuplicateEvery: 2})
		},
		Initial: initial,
	})
	if err != nil {
		t.Fatalf("RunElastic: %v", err)
	}
	if rep.Epochs != 1 {
		t.Errorf("duplicates alone forced %d epochs, want 1", rep.Epochs)
	}
	if copies.Load() == 0 {
		t.Error("no duplicate reached the wire")
	}
	assertSameSinks(t, want, got)
}

// copyCounter sits under a rank's fault injector and counts the messages
// whose Seq the rank already sent: the injected copies.
type copyCounter struct {
	fabric.Transport
	mu     sync.Mutex
	seen   map[uint64]bool
	copies *atomic.Int64
}

func (c *copyCounter) Send(m fabric.Message) error { return c.SendN([]fabric.Message{m}) }

func (c *copyCounter) SendN(ms []fabric.Message) error {
	c.mu.Lock()
	for _, m := range ms {
		if m.Seq != 0 && c.seen[m.Seq] {
			c.copies.Add(1)
		}
		c.seen[m.Seq] = true
	}
	c.mu.Unlock()
	return c.Transport.SendN(ms)
}

// TestFaultDegradeToSingleRank kills a rank on EVERY epoch: the survivor
// set shrinks 4 → 3 → 2 → 1, and the final single-rank epoch — whose
// messages are all local, beyond the injector's reach — must still deliver
// sinks byte-identical to serial, accelerated by three epochs of ledger
// replay.
func TestFaultDegradeToSingleRank(t *testing.T) {
	g, err := graphs.NewReduction(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb := mixCallback(g)
	initial := externalInputsFor(g)
	want := serialReference(t, g, cb, initial)

	m := core.NewGraphMap(4, g)
	ctrl, connect := elasticController(t, g, m, cb, wire.TierAuto, nil)
	got, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
		Connect: connect,
		Inject: func(epoch, rank int, tr fabric.Transport) fabric.Transport {
			return faultinject.Wrap(tr, rank, faultinject.Plan{KillRank: 0, KillAfter: 0})
		},
		Initial: initial,
	})
	if err != nil {
		t.Fatalf("RunElastic: %v (report %+v)", err, rep)
	}
	assertSameSinks(t, want, got)
	if len(rep.LostShards) == 0 {
		t.Error("no shards reported lost")
	}
	if rep.Epochs < 2 {
		t.Errorf("completed in %d epoch(s), expected repeated recovery", rep.Epochs)
	}
	t.Logf("epochs=%d lost=%v replayed=%d executed=%d", rep.Epochs, rep.LostShards, rep.Replayed, rep.Executed)
}

// TestFaultRetriesExhausted bounds recovery: with a two-attempt budget and
// a kill on every epoch, RunElastic must give up with a typed
// ErrRetriesExhausted rather than hang or mask the failure.
func TestFaultRetriesExhausted(t *testing.T) {
	g, err := graphs.NewReduction(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb := mixCallback(g)
	initial := externalInputsFor(g)

	m := core.NewGraphMap(4, g)
	ctrl, connect := elasticController(t, g, m, cb, wire.TierAuto, nil,
		mpi.WithRetry(core.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}))
	_, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
		Connect: connect,
		Inject: func(epoch, rank int, tr fabric.Transport) fabric.Transport {
			return faultinject.Wrap(tr, rank, faultinject.Plan{KillRank: 0, KillAfter: 0})
		},
		Initial: initial,
	})
	if err == nil {
		t.Fatal("RunElastic succeeded though every epoch was killed")
	}
	if !errors.Is(err, core.ErrRetriesExhausted) {
		t.Errorf("error %v does not wrap core.ErrRetriesExhausted", err)
	}
	if rep.Epochs != 2 {
		t.Errorf("gave up after %d epoch(s), want 2", rep.Epochs)
	}
}

// TestRunContextCancellation covers the context-aware Controller API: a
// cancelled context must unwind an in-flight run promptly with an error
// wrapping core.ErrCancelled, on every controller that executes
// concurrently.
func TestRunContextCancellation(t *testing.T) {
	g := randomDAG(40, 77)
	if err := core.Validate(g); err != nil {
		t.Fatal(err)
	}
	slow := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		time.Sleep(5 * time.Millisecond)
		return mixCallback(g)(in, id)
	}
	initial := externalInputsFor(g)
	for name, ctrl := range allControllers(g, 4) {
		if name == "serial" {
			continue
		}
		name, ctrl := name, ctrl
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, cid := range g.Callbacks() {
				if err := ctrl.RegisterCallback(cid, slow); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := ctrl.RunContext(ctx, initial)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("RunContext returned nil error under a 10ms deadline")
			}
			if !errors.Is(err, core.ErrCancelled) {
				t.Errorf("error %v does not wrap core.ErrCancelled", err)
			}
			if elapsed > 5*time.Second {
				t.Errorf("cancellation took %v", elapsed)
			}
		})
	}
}

// TestSerialRunContextCancellation covers the serial controller separately:
// it observes the context between tasks, so a pre-cancelled context must
// fail fast.
func TestSerialRunContextCancellation(t *testing.T) {
	g := randomDAG(10, 7)
	cb := mixCallback(g)
	ser := core.NewSerial()
	ser.Initialize(g, nil)
	for _, cid := range g.Callbacks() {
		ser.RegisterCallback(cid, cb)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ser.RunContext(ctx, externalInputsFor(g)); !errors.Is(err, core.ErrCancelled) {
		t.Errorf("serial RunContext on cancelled ctx: %v, want ErrCancelled", err)
	}
}
