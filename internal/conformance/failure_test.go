package conformance

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// TestFailurePaths is the failure-path table of the controller chassis: on
// every controller, every way a run can fail — a callback error, a callback
// panic, a wrong output count, a context cancelled mid-run and one cancelled
// from inside the last task (the completion race) — must yield a typed
// error and no sinks, observe no task twice, return every arena buffer,
// leave no goroutine behind, and leave the SAME controller value able to
// complete a clean run whose sinks equal serial's.
//
// It runs on a reduction, whose single root makes "the last task" the same
// task on every controller and whose lack of fan-out makes the arena count
// exact (a fan-out's last consumer keeps the shared buffer, by design), and
// on a random DAG with fan-out and multi-slot outputs, where buffers and
// messages are in flight in every direction when the run aborts.
func TestFailurePaths(t *testing.T) {
	red, err := graphs.NewReduction(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("reduction", func(t *testing.T) { failurePaths(t, red, true) })
	t.Run("random-dag", func(t *testing.T) { failurePaths(t, check.RandomDAG(40, 77), false) })
}

func failurePaths(t *testing.T, g core.TaskGraph, arenaExact bool) {
	plan, err := core.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	good := mixCallback(g)

	// mid is a task halfway up the graph that feeds others; last is the task
	// the dependency order ends with.
	levels := plan.Levels()
	mid := core.TaskId(0)
	for _, id := range levels[len(levels)/2] {
		if t, _ := plan.Task(id); t.OutDegree() > 0 {
			mid = id
		}
	}
	lastLevel := levels[len(levels)-1]
	last := lastLevel[len(lastLevel)-1]

	ref := serialReference(t, g, good)

	type row struct {
		name string
		// at is the task whose callback misbehaves; cancel, when set, is
		// called from inside it instead.
		at       core.TaskId
		fail     func(in []core.Payload, id core.TaskId) ([]core.Payload, error)
		cancels  bool
		yields   bool // after cancelling, let the context watcher run first
		wantText string
	}
	boom := errors.New("boom")
	rows := []row{
		{name: "callback-error", at: mid, wantText: fmt.Sprintf("task %d", mid),
			fail: func([]core.Payload, core.TaskId) ([]core.Payload, error) { return nil, boom }},
		{name: "callback-panic", at: mid, wantText: fmt.Sprintf("task %d panicked", mid),
			fail: func([]core.Payload, core.TaskId) ([]core.Payload, error) { panic("kaboom") }},
		{name: "wrong-arity", at: mid, wantText: fmt.Sprintf("task %d produced", mid),
			fail: func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
				out, err := good(in, id)
				return append(out, core.Buffer(nil)), err
			}},
		{name: "cancel-mid-run", at: mid, cancels: true, yields: true},
		{name: "cancel-in-last-task", at: last, cancels: true},
	}

	// run runs c on fresh inputs, under the arena check where it is exact.
	run := func(ctx context.Context, t *testing.T, c config) (got map[core.TaskId][]core.Payload, err error) {
		fn := func() { got, err = c.ctrl.RunContext(ctx, externalInputsFor(g)) }
		if arenaExact {
			check.Arena(t, fn)
		} else {
			fn()
		}
		return got, err
	}
	for _, c := range allControllers(g, 4) {
		// cb is swapped per row; the controller keeps one registration.
		var cb core.Callback
		for _, cid := range g.Callbacks() {
			if err := c.ctrl.RegisterCallback(cid, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
				return cb(in, id)
			}); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range rows {
			t.Run(c.name+"/"+r.name, func(t *testing.T) {
				check.NoLeak(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cb = func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
					if id != r.at {
						return good(in, id)
					}
					if r.cancels {
						cancel()
						for i := 0; r.yields && i < 1000; i++ {
							runtime.Gosched()
						}
						return good(in, id)
					}
					return r.fail(in, id)
				}
				got, err := run(ctx, t, c)

				switch {
				case err == nil && r.cancels:
					// A watcher acts asynchronously: the run may outrun its
					// cancellation, and must then be complete.
					c.chk.Run(t, ref, got)
				case err == nil:
					t.Fatal("run succeeded")
				case got != nil:
					t.Errorf("failed run returned sinks: %v", got)
				}
				if err != nil {
					c.chk.Aborted(t, check.Epochs{})
					if r.cancels && !errors.Is(err, core.ErrCancelled) {
						t.Errorf("error %v does not wrap core.ErrCancelled", err)
					}
					if !r.cancels && !strings.Contains(err.Error(), r.wantText) {
						t.Errorf("error %q does not name %q", err, r.wantText)
					}
					if r.name == "callback-error" && !errors.Is(err, boom) {
						t.Errorf("error %v does not wrap the callback's", err)
					}
				}

				// The same controller value runs clean afterwards.
				cb = good
				if got, err = run(context.Background(), t, c); err != nil {
					t.Fatalf("clean run after the failure: %v", err)
				}
				c.chk.Run(t, ref, got)
			})
		}
	}
}

// TestRelayCallbacksKeepPayloads runs a graph whose callbacks return their
// input slice as their output on every controller: the inputs are a window
// of the controller's slot arena, which may be recycled only after the
// outputs were routed, so every sink must still say "hello".
func TestRelayCallbacksKeepPayloads(t *testing.T) {
	// 0 -> 1 -> {2, 3} -> sinks: a relay chain ending in a fan-out.
	g := core.NewExplicitGraph([]core.Task{
		{Id: 0, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []core.TaskId{0}, Outgoing: [][]core.TaskId{{2, 3}}},
		{Id: 2, Callback: 0, Incoming: []core.TaskId{1}, Outgoing: [][]core.TaskId{nil}},
		{Id: 3, Callback: 0, Incoming: []core.TaskId{1}, Outgoing: [][]core.TaskId{nil}},
	})
	relay := func(in []core.Payload, _ core.TaskId) ([]core.Payload, error) { return in, nil }
	ref := checkMatrix(t, "relay", g, 2, relay, func() map[core.TaskId][]core.Payload {
		return map[core.TaskId][]core.Payload{0: {core.Buffer([]byte("hello"))}}
	})
	for _, id := range []core.TaskId{2, 3} {
		if out := ref.Sinks[id]; len(out) != 1 || string(out[0].Data) != "hello" {
			t.Errorf("serial sink %d = %v, want one payload \"hello\"", id, out)
		}
	}
}
