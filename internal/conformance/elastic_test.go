package conformance

import (
	"context"
	"net"
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

// Elastic-membership conformance: live joins, graceful drains, the two
// interleaved, a joiner killed mid-hand-off, and an asymmetric partition —
// each must leave the sinks byte-identical to the serial reference, with
// the final epoch's replayed+executed covering every task exactly once.

// elasticController builds an MPI controller configured for fault-tolerant
// runs over real loopback meshes: Connect builds a fresh epoch-stamped wire
// mesh of the given tier per attempt, with an optional per-epoch
// connection-level fault hook (the transport-level faults go through
// ElasticOptions.Inject instead). opts extend or override the default
// four-attempt retry policy.
func elasticController(t testing.TB, g core.TaskGraph, m core.TaskMap, cb core.Callback, tier wire.Tier, wrapFor func(epoch int) func(int, int, net.Conn) net.Conn, opts ...mpi.Option) (*mpi.Controller, mpi.ConnectFunc) {
	t.Helper()
	ctrl := mpi.New(append([]mpi.Option{mpi.WithRetry(core.RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 5 * time.Millisecond,
	})}, opts...)...)
	if err := ctrl.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	for _, cid := range g.Callbacks() {
		if err := ctrl.RegisterCallback(cid, cb); err != nil {
			t.Fatal(err)
		}
	}
	fp := ctrl.Fingerprint()
	connect := func(epoch, ranks int) ([]fabric.Transport, error) {
		opt := wire.Options{
			Fingerprint:       fp,
			Epoch:             epoch,
			Tier:              tier,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  500 * time.Millisecond,
		}
		if wrapFor != nil {
			opt.WrapConn = wrapFor(epoch)
		}
		fabs, err := wire.Mesh(ranks, opt)
		if err != nil {
			return nil, err
		}
		trs := make([]fabric.Transport, len(fabs))
		for i, f := range fabs {
			trs[i] = f
		}
		return trs, nil
	}
	return ctrl, connect
}

// triggerAfter invokes fire exactly once, from inside the nth callback
// execution, then parks that task briefly so the membership fence provably
// lands mid-epoch rather than racing the epoch's completion.
func triggerAfter(cb core.Callback, nth int64, fire func()) core.Callback {
	var count atomic.Int64
	var once sync.Once
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		if count.Add(1) == nth {
			once.Do(func() {
				fire()
				time.Sleep(50 * time.Millisecond)
			})
		}
		return cb(in, id)
	}
}

// triggerOnShard fires once, inside the nth execution of a task the base
// map places on the given shard — by which point that shard's earlier
// tasks are in its ledger, so a drain provably has lineage to hand off.
func triggerOnShard(cb core.Callback, m core.TaskMap, shard core.ShardId, nth int64, fire func()) core.Callback {
	var count atomic.Int64
	var once sync.Once
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		if m.Shard(id) == shard && count.Add(1) == nth {
			once.Do(func() {
				fire()
				time.Sleep(50 * time.Millisecond)
			})
		}
		return cb(in, id)
	}
}

func assertMembers(t *testing.T, ms *mpi.Membership, want ...core.ShardId) {
	t.Helper()
	got := ms.Members()
	set := make(map[core.ShardId]bool, len(got))
	for _, id := range got {
		set[id] = true
	}
	if len(got) != len(want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	for _, id := range want {
		if !set[id] {
			t.Fatalf("members %v, want %v", got, want)
		}
	}
}

// TestElasticJoinMidWorkload grows the mesh 2→4 while the dataflow runs:
// two joins arrive mid-epoch, the epoch fences once, and the rebalanced
// 4-member epoch finishes with sinks byte-identical to serial.
func TestElasticJoinMidWorkload(t *testing.T) {
	for _, tc := range conformanceTiers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g, err := graphs.NewKWayMerge(8, 2)
			if err != nil {
				t.Fatal(err)
			}
			cb := mixCallback(g)
			initial := externalInputsFor(g)
			want := serialReference(t, g, cb, initial)

			ms, err := mpi.NewMembership(2)
			if err != nil {
				t.Fatal(err)
			}
			trigger := triggerAfter(cb, 2, func() { ms.Join(); ms.Join() })
			m := core.NewGraphMap(2, g)
			ctrl, connect := elasticController(t, g, m, trigger, tc.tier, nil)
			got, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
				Connect:    connect,
				Initial:    initial,
				Membership: ms,
			})
			if err != nil {
				t.Fatalf("RunElastic: %v (report %+v)", err, rep)
			}
			assertSameSinks(t, want, got)
			if len(rep.Joined) != 2 {
				t.Fatalf("joined %v, want two members", rep.Joined)
			}
			if rep.Fences < 1 {
				t.Fatalf("mid-workload join did not fence the epoch (report %+v)", rep)
			}
			assertMembers(t, ms, 0, 1, 2, 3)
			if total := rep.Replayed + rep.Executed; total != g.Size() {
				t.Fatalf("final epoch replayed %d + executed %d = %d, want task count %d",
					rep.Replayed, rep.Executed, total, g.Size())
			}
			if rep.JoinLatency <= 0 {
				t.Fatal("join latency not recorded")
			}
			t.Logf("epochs=%d fences=%d replayed=%d executed=%d handoff=%d join=%v",
				rep.Epochs, rep.Fences, rep.Replayed, rep.Executed, rep.HandedOff, rep.JoinLatency)
		})
	}
}

// TestElasticDrainMidWorkload retires rank 3 of a 4-rank mesh mid-run: the
// drain fences the epoch after member 3 has lineage in its ledger, the
// hand-off adopts it into the survivors, and the 3-member epoch finishes
// byte-identical to serial — member 3 leaves without being declared lost.
func TestElasticDrainMidWorkload(t *testing.T) {
	for _, tc := range conformanceTiers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g, err := graphs.NewKWayMerge(8, 2)
			if err != nil {
				t.Fatal(err)
			}
			cb := mixCallback(g)
			initial := externalInputsFor(g)
			want := serialReference(t, g, cb, initial)

			ms, err := mpi.NewMembership(4)
			if err != nil {
				t.Fatal(err)
			}
			m := core.NewGraphMap(4, g)
			trigger := triggerOnShard(cb, m, 3, 2, func() {
				if err := ms.Drain(3); err != nil {
					t.Errorf("drain: %v", err)
				}
			})
			ctrl, connect := elasticController(t, g, m, trigger, tc.tier, nil)
			got, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
				Connect:    connect,
				Initial:    initial,
				Membership: ms,
			})
			if err != nil {
				t.Fatalf("RunElastic: %v (report %+v)", err, rep)
			}
			assertSameSinks(t, want, got)
			if len(rep.Drained) != 1 || rep.Drained[0] != 3 {
				t.Fatalf("drained %v, want [3]", rep.Drained)
			}
			if len(rep.LostShards) != 0 {
				t.Fatalf("graceful drain declared losses: %v", rep.LostShards)
			}
			if rep.HandedOff == 0 {
				t.Fatalf("drain handed off no lineage (report %+v)", rep)
			}
			assertMembers(t, ms, 0, 1, 2)
			if total := rep.Replayed + rep.Executed; total != g.Size() {
				t.Fatalf("final epoch replayed %d + executed %d = %d, want task count %d",
					rep.Replayed, rep.Executed, total, g.Size())
			}
			if rep.DrainLatency <= 0 {
				t.Fatal("drain latency not recorded")
			}
			t.Logf("epochs=%d fences=%d replayed=%d executed=%d handoff=%d drain=%v",
				rep.Epochs, rep.Fences, rep.Replayed, rep.Executed, rep.HandedOff, rep.DrainLatency)
		})
	}
}

// TestElasticJoinDrainInterleaved requests a join and a drain together:
// both coalesce into ONE epoch bump (one fence), the joiner absorbs work,
// the drained member hands its lineage off, and the sinks stay serial.
func TestElasticJoinDrainInterleaved(t *testing.T) {
	for _, tc := range conformanceTiers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g, err := graphs.NewKWayMerge(8, 2)
			if err != nil {
				t.Fatal(err)
			}
			cb := mixCallback(g)
			initial := externalInputsFor(g)
			want := serialReference(t, g, cb, initial)

			ms, err := mpi.NewMembership(2)
			if err != nil {
				t.Fatal(err)
			}
			trigger := triggerAfter(cb, 2, func() {
				ms.Join()
				if err := ms.Drain(1); err != nil {
					t.Errorf("drain: %v", err)
				}
			})
			m := core.NewGraphMap(2, g)
			ctrl, connect := elasticController(t, g, m, trigger, tc.tier, nil)
			got, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
				Connect:    connect,
				Initial:    initial,
				Membership: ms,
			})
			if err != nil {
				t.Fatalf("RunElastic: %v (report %+v)", err, rep)
			}
			assertSameSinks(t, want, got)
			if len(rep.Joined) != 1 || rep.Joined[0] != 2 {
				t.Fatalf("joined %v, want [2]", rep.Joined)
			}
			if len(rep.Drained) != 1 || rep.Drained[0] != 1 {
				t.Fatalf("drained %v, want [1]", rep.Drained)
			}
			if rep.Fences != 1 {
				t.Fatalf("interleaved join+drain cost %d fences, want exactly 1 (coalesced)", rep.Fences)
			}
			assertMembers(t, ms, 0, 2)
			if total := rep.Replayed + rep.Executed; total != g.Size() {
				t.Fatalf("final epoch replayed %d + executed %d = %d, want task count %d",
					rep.Replayed, rep.Executed, total, g.Size())
			}
		})
	}
}

// TestElasticJoinerKilledDuringHandoff joins a third member mid-run, then
// kills it on its first send of the rebalanced epoch — while it is taking
// over handed-off work. Recovery must evict exactly the joiner (its
// self-report is authoritative), resume from the surviving ledgers, and
// still match serial. The workload is a reduction: the task range the
// rebalance moves onto the joiner has cross-shard consumers there, so the
// joiner provably makes the inter-rank send the kill plan arms on (a
// k-way merge's movable tail is all shard-internal and would never send).
func TestElasticJoinerKilledDuringHandoff(t *testing.T) {
	g, err := graphs.NewReduction(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb := mixCallback(g)
	initial := externalInputsFor(g)
	want := serialReference(t, g, cb, initial)

	ms, err := mpi.NewMembership(2)
	if err != nil {
		t.Fatal(err)
	}
	trigger := triggerAfter(cb, 2, func() { ms.Join() })
	m := core.NewGraphMap(2, g)
	ctrl, connect := elasticController(t, g, m, trigger, wire.TierTCP, nil)
	// The joiner (member 2) sits at logical rank 2 of the 3-member epoch;
	// kill its transport on its first send there.
	inject := func(epoch, rank int, tr fabric.Transport) fabric.Transport {
		if epoch != 2 || rank != 2 {
			return tr
		}
		return faultinject.Wrap(tr, rank, faultinject.Plan{KillRank: 2, Delay: time.Millisecond})
	}
	got, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
		Connect:    connect,
		Inject:     inject,
		Initial:    initial,
		Membership: ms,
	})
	if err != nil {
		t.Fatalf("RunElastic: %v (report %+v)", err, rep)
	}
	assertSameSinks(t, want, got)
	if len(rep.Joined) != 1 || rep.Joined[0] != 2 {
		t.Fatalf("joined %v, want [2]", rep.Joined)
	}
	if len(rep.LostShards) != 1 || rep.LostShards[0] != 2 {
		t.Fatalf("lost %v, want the killed joiner [2] (report %+v)", rep.LostShards, rep)
	}
	assertMembers(t, ms, 0, 1)
	if total := rep.Replayed + rep.Executed; total != g.Size() {
		t.Fatalf("final epoch replayed %d + executed %d = %d, want task count %d",
			rep.Replayed, rep.Executed, total, g.Size())
	}
	t.Logf("epochs=%d fences=%d lost=%v replayed=%d executed=%d",
		rep.Epochs, rep.Fences, rep.LostShards, rep.Replayed, rep.Executed)
}

// TestElasticAsymmetricPartitionKeepsMembership blackholes the 1→2 link of
// a 3-rank mesh for the first epoch: rank 2 hears nothing from rank 1 and
// declares it silent, the collapse makes the peers report rank 2 in turn —
// but every suspect spoke (reporting a loss is proof of life), so the
// partition-hardened classification keeps the membership intact and the
// flap costs exactly one epoch bump, not an eviction. Callbacks are paced
// so the epoch provably outlasts the heartbeat timeout; otherwise a small
// graph finishes inside the detection window and the dead link goes
// unnoticed.
func TestElasticAsymmetricPartitionKeepsMembership(t *testing.T) {
	g, err := graphs.NewKWayMerge(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb := mixCallback(g)
	initial := externalInputsFor(g)
	want := serialReference(t, g, cb, initial)

	ms, err := mpi.NewMembership(3)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewGraphMap(3, g)
	wrapFor := func(epoch int) func(int, int, net.Conn) net.Conn {
		if epoch != 1 {
			return nil
		}
		return faultinject.PartitionLink(1, 2)
	}
	paced := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		time.Sleep(100 * time.Millisecond)
		return cb(in, id)
	}
	ctrl, connect := elasticController(t, g, m, paced, wire.TierTCP, wrapFor)
	got, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
		Connect:    connect,
		Initial:    initial,
		Membership: ms,
	})
	if err != nil {
		t.Fatalf("RunElastic: %v (report %+v)", err, rep)
	}
	assertSameSinks(t, want, got)
	if len(rep.LostShards) != 0 {
		t.Fatalf("partition evicted members %v; a partitioned-but-alive rank must not be declared dead", rep.LostShards)
	}
	assertMembers(t, ms, 0, 1, 2)
	if rep.Epochs != 2 {
		t.Fatalf("partition cost %d epochs, want exactly 2 (one bump)", rep.Epochs)
	}
	if total := rep.Replayed + rep.Executed; total != g.Size() {
		t.Fatalf("final epoch replayed %d + executed %d = %d, want task count %d",
			rep.Replayed, rep.Executed, total, g.Size())
	}
	t.Logf("epochs=%d lost=%v replayed=%d executed=%d recovery=%v",
		rep.Epochs, rep.LostShards, rep.Replayed, rep.Executed, rep.RecoveryTime)
}
