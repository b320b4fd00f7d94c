package conformance

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// settled waits up to 2 s for the goroutine count to return to baseline.
func settled(baseline int) (int, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		runtime.Gosched()
	}
}

// TestFailurePaths is the failure-path table of the controller chassis: on
// every controller, every way a run can fail — a callback error, a callback
// panic, a wrong output count, a context cancelled mid-run and one cancelled
// from inside the last task (the completion race) — must yield a typed
// error and no sinks, return every arena buffer, leave no goroutine behind,
// and leave the SAME controller value able to complete a clean run whose
// sinks equal serial's.
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
	t.Run("random-dag", func(t *testing.T) { failurePaths(t, randomDAG(40, 77), false) })
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

	want := serialReference(t, g, good, externalInputsFor(g))

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

	ctrls := allControllers(g, 4)
	names := make([]string, 0, len(ctrls))
	for name := range ctrls {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		ctrl := ctrls[name]
		// cb is swapped per row; the controller keeps one registration.
		var cb core.Callback
		for _, cid := range g.Callbacks() {
			if err := ctrl.RegisterCallback(cid, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
				return cb(in, id)
			}); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range rows {
			t.Run(name+"/"+r.name, func(t *testing.T) {
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
				baseline := runtime.NumGoroutine()
				core.ArenaAccounting(true)
				got, err := ctrl.RunContext(ctx, externalInputsFor(g))
				out := core.ArenaOutstanding()
				core.ArenaAccounting(false)

				switch {
				case err == nil && r.cancels:
					// A watcher acts asynchronously: the run may outrun its
					// cancellation, and must then be complete.
					assertSameSinks(t, want, got)
				case err == nil:
					t.Fatal("run succeeded")
				case got != nil:
					t.Errorf("failed run returned sinks: %v", got)
				}
				if err != nil {
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
				if arenaExact && out != 0 {
					t.Errorf("%d arena buffer(s) outstanding after the run", out)
				}
				if n, ok := settled(baseline); !ok {
					t.Errorf("%d goroutines 2s after the run, %d before it", n, baseline)
				}

				// The same controller value runs clean afterwards.
				cb = good
				got, err = ctrl.Run(externalInputsFor(g))
				if err != nil {
					t.Fatalf("clean run after the failure: %v", err)
				}
				assertSameSinks(t, want, got)
			})
		}
	}
}

// TestRelayCallbacksKeepPayloads runs a graph whose callbacks return their
// input slice as their output on every controller: the inputs are a window
// of the controller's slot arena, which may be recycled only after the
// outputs were routed.
func TestRelayCallbacksKeepPayloads(t *testing.T) {
	// 0 -> 1 -> {2, 3} -> sinks: a relay chain ending in a fan-out.
	g := core.NewExplicitGraph([]core.Task{
		{Id: 0, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []core.TaskId{0}, Outgoing: [][]core.TaskId{{2, 3}}},
		{Id: 2, Callback: 0, Incoming: []core.TaskId{1}, Outgoing: [][]core.TaskId{nil}},
		{Id: 3, Callback: 0, Incoming: []core.TaskId{1}, Outgoing: [][]core.TaskId{nil}},
	})
	relay := func(in []core.Payload, _ core.TaskId) ([]core.Payload, error) { return in, nil }
	for name, c := range allControllers(g, 2) {
		if err := c.RegisterCallback(0, relay); err != nil {
			t.Fatal(err)
		}
		out, err := c.Run(map[core.TaskId][]core.Payload{0: {core.Buffer([]byte("hello"))}})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, id := range []core.TaskId{2, 3} {
			if len(out[id]) != 1 || string(out[id][0].Data) != "hello" {
				t.Errorf("%s: sink %d = %v, want one payload \"hello\"", name, id, out[id])
			}
		}
	}
}
