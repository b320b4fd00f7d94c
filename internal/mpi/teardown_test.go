package mpi

import (
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/journal"
)

// openFDs counts this process's open file descriptors, or -1 where
// /proc/self/fd is unavailable (non-Linux).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestLedgerTableCloseIdempotent is the double-close regression guard: the
// close every teardown path defers must be safe to invoke any number of
// times, including beside an explicit call.
func TestLedgerTableCloseIdempotent(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	c := New(WithJournal(t.TempDir()), WithJournalSync(journal.SyncNever))
	if err := c.Initialize(g, core.NewModuloMap(2, g.Size())); err != nil {
		t.Fatal(err)
	}
	leds := c.newLedgerTable()
	for r := core.ShardId(0); r < 2; r++ {
		if _, err := leds.open(r); err != nil {
			t.Fatal(err)
		}
	}
	leds.close()
	after := openFDs()
	leds.close()
	if again := openFDs(); after >= 0 && again != after {
		t.Fatalf("second close changed fd count: %d -> %d", after, again)
	}
	leds.close() // third call: still a no-op
}

// TestJournalClosedOnError checks a journaled run whose callback fails
// still closes every per-rank journal: the fd count returns to its
// baseline, and the directory can immediately be reopened for a resumed
// run that completes and matches the serial reference.
func TestJournalClosedOnError(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	m := core.NewModuloMap(2, g.Size())
	initial := reductionInputs(g)
	want := serialReduction(t, g, initial)
	dir := t.TempDir()
	boom := errors.New("boom")

	reg := func(c *Controller, failRoot bool) {
		c.RegisterCallback(graphs.ReduceLeafCB, sumCB(1))
		c.RegisterCallback(graphs.ReduceMidCB, sumCB(1))
		if failRoot {
			c.RegisterCallback(graphs.ReduceRootCB, func([]core.Payload, core.TaskId) ([]core.Payload, error) {
				return nil, boom
			})
		} else {
			c.RegisterCallback(graphs.ReduceRootCB, sumCB(1))
		}
	}

	base := openFDs()
	fail := New(WithJournal(dir), WithJournalSync(journal.SyncNever))
	if err := fail.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	reg(fail, true)
	if _, err := fail.Run(cloneInitial(initial)); !errors.Is(err, boom) {
		t.Fatalf("failing run: err=%v, want boom", err)
	}
	if base >= 0 {
		if after := openFDs(); after > base {
			t.Fatalf("failed run leaked %d fds (%d -> %d)", after-base, base, after)
		}
	}

	// The journals were closed cleanly, so a resumed run over the same
	// directory replays the journaled prefix and completes.
	resume := New(WithJournal(dir), WithJournalSync(journal.SyncNever))
	if err := resume.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	reg(resume, false)
	got, err := resume.Run(cloneInitial(initial))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	check.Sinks(t, want, got)
	js := resume.JournalStats()
	if js.Restored == 0 || js.Replayed == 0 {
		t.Fatalf("resume did not replay the journaled prefix: %+v", js)
	}
}

// TestJournalClosedOnCancel checks a cancelled journaled run closes its
// journals (no fd growth) and leaves the directory resumable.
func TestJournalClosedOnCancel(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	m := core.NewModuloMap(2, g.Size())
	initial := reductionInputs(g)
	dir := t.TempDir()

	base := openFDs()
	c := New(WithJournal(dir), WithJournalSync(journal.SyncNever))
	if err := c.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	c.RegisterCallback(graphs.ReduceLeafCB, sumCB(1))
	c.RegisterCallback(graphs.ReduceMidCB, sumCB(1))
	c.RegisterCallback(graphs.ReduceRootCB, sumCB(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunContext(ctx, cloneInitial(initial)); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled run: err=%v, want ErrCancelled", err)
	}
	if base >= 0 {
		if after := openFDs(); after > base {
			t.Fatalf("cancelled run leaked %d fds (%d -> %d)", after-base, base, after)
		}
	}

	resume := New(WithJournal(dir), WithJournalSync(journal.SyncNever))
	if err := resume.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	resume.RegisterCallback(graphs.ReduceLeafCB, sumCB(1))
	resume.RegisterCallback(graphs.ReduceMidCB, sumCB(1))
	resume.RegisterCallback(graphs.ReduceRootCB, sumCB(1))
	if _, err := resume.Run(cloneInitial(initial)); err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
}

// TestRunRankJournalClosedOnError checks the single-rank teardown path
// (RunRank with a journal) also releases its store on failure.
func TestRunRankJournalClosedOnError(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	m := core.NewModuloMap(1, g.Size())
	dir := t.TempDir()

	base := openFDs()
	c := New(WithJournal(dir), WithJournalSync(journal.SyncNever))
	if err := c.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	c.RegisterCallback(graphs.ReduceLeafCB, sumCB(1))
	c.RegisterCallback(graphs.ReduceMidCB, sumCB(1))
	// A failing root unwinds RunRank after it opened its journal.
	c.RegisterCallback(graphs.ReduceRootCB, func([]core.Payload, core.TaskId) ([]core.Payload, error) {
		return nil, errors.New("boom")
	})
	if _, err := c.RunRank(0, fabric.New(1), reductionInputs(g)); err == nil {
		t.Fatal("RunRank with a failing root should fail")
	}
	if base >= 0 {
		if after := openFDs(); after > base {
			t.Fatalf("failed RunRank leaked %d fds (%d -> %d)", after-base, base, after)
		}
	}
}

// TestFailedRankStopsLocalChain: workers deliver same-rank edges and
// dispatch what becomes ready, so nothing but the failure check stands
// between a failed epoch and the rest of its local subgraph. One early
// callback of a 16 382-task k-way merge fails; after it, at most the
// callbacks the other workers already picked up may start (each callback
// spins 1 ms, far longer than the failure takes to record), every arena
// buffer is back and no goroutine is left behind.
func TestFailedRankStopsLocalChain(t *testing.T) {
	g, _ := graphs.NewKWayMerge(4096, 2)
	const workers = 2
	c := New(WithWorkers(workers))
	if err := c.Initialize(g, core.NewGraphMap(2, g)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var started, after atomic.Int64
	var failed atomic.Bool
	for _, cb := range g.Callbacks() {
		c.RegisterCallback(cb, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
			if failed.Load() {
				after.Add(1)
			}
			for t0 := time.Now(); time.Since(t0) < time.Millisecond; {
			}
			if started.Add(1) == 4 {
				failed.Store(true)
				return nil, boom
			}
			task, _ := c.Plan().Task(id)
			out := make([]core.Payload, len(task.Outgoing))
			for s := range out {
				out[s] = u64(uint64(id))
			}
			return out, nil
		})
	}
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range g.UpLeafIds() {
		initial[id] = []core.Payload{u64(uint64(id))}
	}

	check.NoLeak(t)
	check.Arena(t, func() {
		if _, err := c.Run(initial); !errors.Is(err, boom) {
			t.Fatalf("Run: %v, want boom", err)
		}
	})
	if n := after.Load(); n > workers {
		t.Errorf("%d callbacks started after the failure, want at most %d (the worker count)", n, workers)
	}
}

// TestFailedRouteReleasesUnsentBatch is the regression test for a route
// that fails part-way: task 0's slot 0 fans out to task 1 (rank 1) and to
// task 2 (rank 0, which gets the pointer), so task 1's message carries an
// arena copy of the wire form; slot 1 is an object that cannot serialize,
// bound for task 3 on rank 1. The run must fail, and the batched message
// that was never sent must give its arena buffer back.
func TestFailedRouteReleasesUnsentBatch(t *testing.T) {
	g := core.NewExplicitGraph([]core.Task{
		{Id: 0, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{1, 2}, {3}}},
		{Id: 1, Callback: 1, Incoming: []core.TaskId{0}, Outgoing: [][]core.TaskId{{}}},
		{Id: 2, Callback: 1, Incoming: []core.TaskId{0}, Outgoing: [][]core.TaskId{{}}},
		{Id: 3, Callback: 1, Incoming: []core.TaskId{0}, Outgoing: [][]core.TaskId{{}}},
	})
	c := New(WithWorkers(2))
	if err := c.Initialize(g, core.NewListMap(2, g.TaskIds())); err != nil {
		t.Fatal(err)
	}
	c.RegisterCallback(0, func([]core.Payload, core.TaskId) ([]core.Payload, error) {
		return []core.Payload{core.Buffer(make([]byte, 256)), core.Object(struct{}{})}, nil
	})
	c.RegisterCallback(1, func([]core.Payload, core.TaskId) ([]core.Payload, error) {
		return []core.Payload{{}}, nil
	})
	check.Arena(t, func() {
		if _, err := c.Run(map[core.TaskId][]core.Payload{0: {{}}}); !errors.Is(err, core.ErrNotSerializable) {
			t.Fatalf("Run: %v, want %v", err, core.ErrNotSerializable)
		}
	})
}
