package mpi

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/graphs"
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
	c := New(WithJournal(t.TempDir()))
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
	fail := New(WithJournal(dir))
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
	resume := New(WithJournal(dir))
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
	c := New(WithJournal(dir))
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

	resume := New(WithJournal(dir))
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
	c := New(WithJournal(dir))
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
// callback of a 16 382-task k-way merge fails; once the rank has recorded
// the failure (the controller's onFail hook, which runs after the stop
// flag is set), at most the callbacks the workers had already passed the
// check for may start, every arena buffer is back and no goroutine is left
// behind. Counting from the failed callback's return instead would also
// count what the other worker starts while the failing one is descheduled
// before it records the failure.
func TestFailedRankStopsLocalChain(t *testing.T) {
	g, _ := graphs.NewKWayMerge(4096, 2)
	const workers = 2
	c := New(WithWorkers(workers))
	if err := c.Initialize(g, core.NewGraphMap(2, g)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var started, after atomic.Int64
	var recorded atomic.Bool
	c.onFail = func(error) { recorded.Store(true) }
	for _, cb := range g.Callbacks() {
		c.RegisterCallback(cb, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
			if recorded.Load() {
				after.Add(1)
			}
			for t0 := time.Now(); time.Since(t0) < time.Millisecond; {
			}
			if started.Add(1) == 4 {
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

// TestFailedReceiveReleasesBatch is the regression test for a receive loop
// that fails part-way through a batch: P on rank 1 fans out to X on rank 0
// and to Y on rank 1 (which gets the pointer), so X's message carries an
// arena copy of the wire form. A bad message reaches rank 0's mailbox
// first — one for a task placed nowhere, or one from a producer X does not
// consume — so rank 0 fails with P's message still in its batch, and that
// message must give its arena buffer back.
func TestFailedReceiveReleasesBatch(t *testing.T) {
	const p, x, y core.TaskId = 0, 1, 2
	g := core.NewExplicitGraph([]core.Task{
		{Id: p, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{x, y}}},
		{Id: x, Callback: 1, Incoming: []core.TaskId{p}, Outgoing: [][]core.TaskId{{}}},
		{Id: y, Callback: 1, Incoming: []core.TaskId{p}, Outgoing: [][]core.TaskId{{}}},
	})
	tmap := core.NewFuncMap(2, g.TaskIds(), func(id core.TaskId) core.ShardId {
		if id == x {
			return 0
		}
		return 1
	})
	for _, tc := range []struct {
		name     string
		bad      fabric.Message
		contains string
	}{
		{"non-local", fabric.Message{From: 1, To: 0, Src: p, Dest: 99}, "non-local task 99"},
		{"no-slot", fabric.Message{From: 1, To: 0, Src: y, Dest: x}, "no open input slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(WithWorkers(1))
			if err := c.Initialize(g, tmap); err != nil {
				t.Fatal(err)
			}
			c.RegisterCallback(0, func([]core.Payload, core.TaskId) ([]core.Payload, error) {
				return []core.Payload{core.Buffer(make([]byte, 256))}, nil
			})
			c.RegisterCallback(1, func([]core.Payload, core.TaskId) ([]core.Payload, error) {
				return []core.Payload{{}}, nil
			})
			check.Arena(t, func() {
				fab := fabric.New(2)
				if err := fab.Send(tc.bad); err != nil {
					t.Fatal(err)
				}
				if _, err := c.RunRank(1, fab, map[core.TaskId][]core.Payload{p: {{}}}); err != nil {
					t.Fatalf("rank 1: %v", err)
				}
				_, err := c.RunRank(0, fab, nil)
				if err == nil || !strings.Contains(err.Error(), tc.contains) {
					t.Fatalf("rank 0: %v, want an error naming %q", err, tc.contains)
				}
			})
		})
	}
}

// TestInlineFailedReceiveLeavesNoReadyTask is the regression test for an
// inline rank loop that fails part-way through a batch after an earlier
// message made a task ready: the task must not stay in the loop's scratch,
// which goes back to the pool every rank loop and worker draws from. On
// one P the next run draws that very scratch, and it must match serial.
func TestInlineFailedReceiveLeavesNoReadyTask(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const p, x, y core.TaskId = 0, 1, 2
	g := core.NewExplicitGraph([]core.Task{
		{Id: p, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{x, y}}},
		{Id: x, Callback: 1, Incoming: []core.TaskId{p}, Outgoing: [][]core.TaskId{{}}},
		{Id: y, Callback: 1, Incoming: []core.TaskId{p}, Outgoing: [][]core.TaskId{{}}},
	})
	tmap := core.NewFuncMap(2, g.TaskIds(), func(id core.TaskId) core.ShardId {
		if id == x {
			return 0
		}
		return 1
	})
	reg := func(r core.CallbackRegistrar) error {
		r.RegisterCallback(0, func([]core.Payload, core.TaskId) ([]core.Payload, error) {
			return []core.Payload{core.Buffer([]byte("p"))}, nil
		})
		r.RegisterCallback(1, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
			return []core.Payload{core.Buffer(append([]byte{byte(id)}, in[0].Data...))}, nil
		})
		return nil
	}
	c := New(WithInline(true))
	if err := c.Initialize(g, tmap); err != nil {
		t.Fatal(err)
	}
	if err := reg(c); err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(2)
	for _, m := range []fabric.Message{
		{From: 1, To: 0, Src: p, Dest: x, Payload: core.Buffer([]byte("p"))},
		{From: 1, To: 0, Src: p, Dest: 99},
	} {
		if err := fab.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RunRank(0, fab, nil); err == nil || !strings.Contains(err.Error(), "non-local task 99") {
		t.Fatalf("rank 0: %v, want an error naming task 99", err)
	}
	ref := check.Serial(t, g, reg, map[core.TaskId][]core.Payload{p: {{}}})
	got, err := c.Run(map[core.TaskId][]core.Payload{p: {{}}})
	if err != nil {
		t.Fatal(err)
	}
	check.Sinks(t, ref.Sinks, got)
}
