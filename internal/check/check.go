// Package check is the one invariant checker of the conformance runs: the
// properties every run of a task graph keeps — on every controller,
// transport tier and failure schedule — said once. A Checker is the
// core.Observer a checked run's controller is built with; an end-of-run
// method then checks what it saw, the sinks and the run's report against a
// serial Reference. The invariants:
//
//  1. the sinks are byte-identical to serial's (Sinks);
//  2. at most one TaskRan/TaskReplayed per (epoch, task), and on a plain
//     successful run exactly one per task serial ran (Checker.Run);
//  3. a RunElastic that succeeded replayed plus executed every task once
//     in its final epoch (Checker.Elastic);
//  4. epochs = 1 + fences + EpochRetried events: a fence burns no retry
//     budget (Checker.Elastic, Checker.Aborted);
//  5. fences <= joins + drains: at most one epoch bump per membership
//     event (Checker.Elastic, Checker.Aborted);
//  6. no arena buffer outstanding (Arena);
//  7. goroutines back to their baseline (Settle, NoLeak).
//
// The arena count and the goroutine count are process-wide, so 6 and 7 are
// exact only in a test that runs alone (no t.Parallel). 6 is exact besides
// only where no buffer is handed to a consumer, which keeps it by design
// (core.ArenaOutstanding): a fan-out's last consumer keeps the shared
// buffer, for one. A package whose tests run in parallel checks 7 once,
// around m.Run in its TestMain.
//
// check imports only core and the standard library, so the internal tests
// of the runtimes can use it too.
package check

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Reference is what a serial run of a graph on given inputs produced: the
// sinks every other run must reproduce, the tasks whose callbacks ran (a
// task a dead branch cancelled did not) and the task count.
type Reference struct {
	Sinks map[core.TaskId][]core.Payload
	Ran   map[core.TaskId]bool
	Tasks int
}

// Serial runs g on the serial controller, observed, with the callbacks reg
// binds, and returns the reference runs of g on the same inputs are
// checked against. The run consumes initial.
func Serial(tb testing.TB, g core.TaskGraph, reg func(core.CallbackRegistrar) error, initial map[core.TaskId][]core.Payload) Reference {
	tb.Helper()
	var chk Checker
	ser := core.NewSerial()
	ser.Observer = &chk
	if err := ser.Initialize(g, nil); err != nil {
		tb.Fatal(err)
	}
	if err := reg(ser); err != nil {
		tb.Fatal(err)
	}
	sinks, err := ser.Run(initial)
	if err != nil {
		tb.Fatalf("serial reference: %v", err)
	}
	ref := Reference{Sinks: sinks, Ran: make(map[core.TaskId]bool), Tasks: g.Size()}
	events, _ := chk.take()
	for _, e := range events {
		ref.Ran[e.task] = true
	}
	return ref
}

// Sinks checks invariant 1: got holds want's sink tasks, each with
// payloads byte-identical to want's, slot by slot.
func Sinks(tb testing.TB, want, got map[core.TaskId][]core.Payload) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Errorf("sink count %d, want %d", len(got), len(want))
		return
	}
	for id, ws := range want {
		gs := got[id]
		if len(gs) != len(ws) {
			tb.Errorf("task %d: %d payloads, want %d", id, len(gs), len(ws))
			continue
		}
		for i := range ws {
			wb, werr := ws[i].Wire()
			gb, gerr := gs[i].Wire()
			if werr != nil || gerr != nil || !bytes.Equal(wb, gb) {
				tb.Errorf("task %d sink %d differs from serial (%v, %v)", id, i, werr, gerr)
			}
		}
	}
}

// Epochs is what a fault-tolerant run reports about its epochs: the
// counters of mpi.ElasticReport, which this package cannot import.
// Memberships counts the joins plus drains applied; Replayed and Executed
// are the final epoch's.
type Epochs struct {
	Epochs, Fences, Memberships int
	Replayed, Executed          int
}

// Checker observes a controller's runs. Each end-of-run method checks the
// events seen since the previous one and forgets them, so one Checker
// serves every run of its controller. The zero value is ready to use.
type Checker struct {
	mu     sync.Mutex
	events []event
}

type event struct {
	kind  core.EventKind
	epoch int
	task  core.TaskId
}

// Observe implements core.Observer.
func (c *Checker) Observe(e core.Event) {
	c.mu.Lock()
	c.events = append(c.events, event{e.Kind, e.Epoch, e.Task})
	c.mu.Unlock()
}

// take returns the task events seen since the last take and the number of
// EpochRetried events among them, and forgets them.
func (c *Checker) take() (tasks []event, retried int) {
	c.mu.Lock()
	all := c.events
	c.events = nil
	c.mu.Unlock()
	for _, e := range all {
		if e.kind == core.EpochRetried {
			retried++
		} else {
			tasks = append(tasks, e)
		}
	}
	return tasks, retried
}

// Run checks a plain run that returned got (invariants 1 and 2): the sinks
// equal serial's, every task serial ran was observed exactly once and no
// other task more than once — a resumed run replays what its journal
// holds, dead-branch cancellations included.
func (c *Checker) Run(tb testing.TB, ref Reference, got map[core.TaskId][]core.Payload) {
	tb.Helper()
	Sinks(tb, ref.Sinks, got)
	events, _ := c.take()
	exactlyOnce(tb, "run", events, ref.Ran)
}

// Elastic checks a RunElastic that returned got and reported rep
// (invariants 1–5): beyond Aborted's checks, the sinks equal serial's,
// replayed plus executed is the task count, and the final epoch observed
// each task serial ran exactly once: rep.Replayed replays and rep.Executed
// runs.
func (c *Checker) Elastic(tb testing.TB, ref Reference, got map[core.TaskId][]core.Payload, rep Epochs) {
	tb.Helper()
	Sinks(tb, ref.Sinks, got)
	events, retried := c.take()
	epochArithmetic(tb, events, retried, rep)
	if rep.Replayed+rep.Executed != ref.Tasks {
		tb.Errorf("final epoch replayed %d + executed %d, want the task count %d", rep.Replayed, rep.Executed, ref.Tasks)
	}
	var final []event
	kinds := map[core.EventKind]int{}
	for _, e := range events {
		if e.epoch == rep.Epochs {
			final = append(final, e)
			kinds[e.kind]++
		}
	}
	exactlyOnce(tb, fmt.Sprintf("final epoch %d", rep.Epochs), final, ref.Ran)
	if kinds[core.TaskReplayed] != rep.Replayed || kinds[core.TaskRan] != rep.Executed {
		tb.Errorf("final epoch observed %d replays and %d runs, report says %d and %d",
			kinds[core.TaskReplayed], kinds[core.TaskRan], rep.Replayed, rep.Executed)
	}
}

// Aborted checks a run that failed: no task was observed twice in one
// epoch and, for a fault-tolerant run (rep.Epochs > 0), the epoch
// arithmetic holds (invariants 2, 4 and 5). A plain run passes Epochs{}.
func (c *Checker) Aborted(tb testing.TB, rep Epochs) {
	tb.Helper()
	events, retried := c.take()
	epochArithmetic(tb, events, retried, rep)
}

// epochArithmetic checks invariant 2's at-most-once per (epoch, task) and,
// when rep is a fault-tolerant run's, invariants 4 and 5.
func epochArithmetic(tb testing.TB, events []event, retried int, rep Epochs) {
	tb.Helper()
	type key struct {
		epoch int
		task  core.TaskId
	}
	seen := make(map[key]int, len(events))
	for _, e := range events {
		if seen[key{e.epoch, e.task}]++; seen[key{e.epoch, e.task}] == 2 {
			tb.Errorf("epoch %d observed task %d more than once", e.epoch, e.task)
		}
	}
	if rep.Epochs == 0 {
		return
	}
	if rep.Epochs != 1+rep.Fences+retried {
		tb.Errorf("%d epochs, want 1 + %d fences + %d retries", rep.Epochs, rep.Fences, retried)
	}
	if rep.Fences > rep.Memberships {
		tb.Errorf("%d fences for %d membership events", rep.Fences, rep.Memberships)
	}
}

// exactlyOnce checks that events hold each task of ran once and no other
// task twice.
func exactlyOnce(tb testing.TB, what string, events []event, ran map[core.TaskId]bool) {
	tb.Helper()
	seen := make(map[core.TaskId]int, len(events))
	for _, e := range events {
		if seen[e.task]++; seen[e.task] == 2 {
			tb.Errorf("%s observed task %d more than once", what, e.task)
		}
	}
	for id := range ran {
		if seen[id] == 0 {
			tb.Errorf("%s never observed task %d", what, id)
		}
	}
}

// Arena runs fn with arena accounting on and checks invariant 6: every
// arena buffer fn grabbed was released. It is exact only where the package
// doc says.
func Arena(tb testing.TB, fn func()) {
	tb.Helper()
	core.ArenaAccounting(true)
	defer core.ArenaAccounting(false)
	fn()
	if n := core.ArenaOutstanding(); n != 0 {
		tb.Errorf("%d arena buffer(s) outstanding", n)
	}
}

// settleTimeout bounds how long Settle waits for goroutines to exit.
const settleTimeout = 5 * time.Second

// Settle checks invariant 7: it yields (runtime.Gosched) until at most
// baseline goroutines are left and, if that takes longer than five
// seconds, returns an error carrying the count and every goroutine's
// stack.
func Settle(baseline int) error {
	deadline := time.Now().Add(settleTimeout)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines %v after the run, %d before it:\n%s", runtime.NumGoroutine(), settleTimeout, baseline, buf)
		}
		runtime.Gosched()
	}
	return nil
}

// NoLeak checks invariant 7 when tb ends (after its other cleanups): the
// goroutine count must settle back to what it is now.
func NoLeak(tb testing.TB) {
	baseline := runtime.NumGoroutine()
	tb.Cleanup(func() {
		if err := Settle(baseline); err != nil {
			tb.Error(err)
		}
	})
}

// RandomDAG builds a seeded random valid graph over n tasks: edges run only
// from lower to higher ids, each task consumes from its predecessors at
// random and may take an external input beside them, consumers are grouped
// into output slots at random (a slot may multicast, a task may have
// several and an extra sink slot), ids are dense or gapped, and some
// multi-slot tasks declare two branches. Callback ids are 0–3.
func RandomDAG(n int, seed int64) *core.ExplicitGraph {
	r := rand.New(rand.NewSource(seed))
	ids := make([]core.TaskId, n)
	next := core.TaskId(0)
	gapped := r.Intn(2) == 0
	for i := range ids {
		if gapped {
			next += core.TaskId(r.Intn(1000))
		}
		ids[i] = next
		next++
	}
	consumers := make([][]int, n)
	tasks := make([]core.Task, n)
	for j := range tasks {
		tasks[j] = core.Task{Id: ids[j], Callback: core.CallbackId(r.Intn(4))}
		if j == 0 || r.Intn(4) == 0 {
			tasks[j].Incoming = append(tasks[j].Incoming, core.ExternalInput)
		}
		for i := 0; i < j; i++ {
			if r.Intn(j+1) < 2 {
				tasks[j].Incoming = append(tasks[j].Incoming, ids[i])
				consumers[i] = append(consumers[i], j)
			}
		}
		if len(tasks[j].Incoming) == 0 {
			tasks[j].Incoming = []core.TaskId{core.ExternalInput}
		}
	}
	for i := range tasks {
		t := &tasks[i]
		for _, c := range consumers[i] {
			if len(t.Outgoing) == 0 || r.Intn(2) == 0 {
				t.Outgoing = append(t.Outgoing, nil)
			}
			last := len(t.Outgoing) - 1
			t.Outgoing[last] = append(t.Outgoing[last], ids[c])
		}
		if len(consumers[i]) == 0 || r.Intn(5) == 0 {
			t.Outgoing = append(t.Outgoing, []core.TaskId{}) // sink slot
		}
		if len(t.Outgoing) >= 2 && r.Intn(3) == 0 {
			t.Branches = 2
			t.Cond = make([]int, len(t.Outgoing))
			for s := range t.Cond {
				t.Cond[s] = s%3 - 1 // -1, 0, 1, ...: both branches own a slot from 3 slots up
			}
			t.Cond[0], t.Cond[1] = 0, 1
		}
	}
	return core.NewExplicitGraph(tasks)
}
