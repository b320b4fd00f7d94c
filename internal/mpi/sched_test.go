package mpi

import (
	"sync"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

// chainVsLeaves builds the starvation shape of the scheduler issue: a deep
// chain head competing with a burst of wide independent leaves, everything
// funneling into one final sink.
//
//	leaves l0..l(width-1)  --\
//	                          sink
//	head -> c1 -> ... -> c(depth-1) --/
//
// All leaves and the chain head are ready at t=0, the head submitted last.
// A dispatcher in submission order would make the whole chain wait behind
// every leaf; the critical-path scheduler runs the head first (depth+1
// levels of downstream work vs. the leaves' 2).
func chainVsLeaves(width, depth int) (core.TaskGraph, []core.TaskId, []core.TaskId) {
	var tasks []core.Task
	var leaves []core.TaskId
	sink := core.TaskId(width + depth)
	for i := 0; i < width; i++ {
		id := core.TaskId(i)
		leaves = append(leaves, id)
		tasks = append(tasks, core.Task{
			Id: id, Callback: 0,
			Incoming: []core.TaskId{core.ExternalInput},
			Outgoing: [][]core.TaskId{{sink}},
		})
	}
	var chain []core.TaskId
	for i := 0; i < depth; i++ {
		id := core.TaskId(width + i)
		chain = append(chain, id)
		in := core.ExternalInput
		if i > 0 {
			in = id - 1
		}
		out := sink
		if i < depth-1 {
			out = id + 1
		}
		tasks = append(tasks, core.Task{
			Id: id, Callback: 0,
			Incoming: []core.TaskId{in},
			Outgoing: [][]core.TaskId{{out}},
		})
	}
	sinkIn := append([]core.TaskId{}, leaves...)
	sinkIn = append(sinkIn, chain[depth-1])
	tasks = append(tasks, core.Task{
		Id: sink, Callback: 0,
		Incoming: sinkIn,
		Outgoing: [][]core.TaskId{{}},
	})
	return core.NewExplicitGraph(tasks), leaves, chain
}

// runChainVsLeaves executes the shape on one rank with a single worker and
// returns how many leaves ran before the chain's first task.
func runChainVsLeaves(t *testing.T) int {
	t.Helper()
	const width, depth = 24, 8
	g, leaves, chain := chainVsLeaves(width, depth)

	log := core.NewExecutionLog()
	ctrl := New(WithWorkers(1), WithObserver(log))
	if err := ctrl.Initialize(g, core.NewModuloMap(1, g.Size())); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterCallback(0, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		time.Sleep(50 * time.Microsecond)
		tk, _ := g.Task(id)
		return make([]core.Payload, len(tk.Outgoing)), nil
	}); err != nil {
		t.Fatal(err)
	}
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range leaves {
		initial[id] = []core.Payload{{}}
	}
	initial[chain[0]] = []core.Payload{{}}
	if _, err := ctrl.Run(initial); err != nil {
		t.Fatal(err)
	}
	if log.Len() != g.Size() {
		t.Fatalf("executed %d of %d tasks", log.Len(), g.Size())
	}
	before := 0
	for _, id := range log.Order {
		if id == chain[0] {
			return before
		}
		if int(id) < width {
			before++
		}
	}
	t.Fatal("chain head never executed")
	return 0
}

// TestPriorityAvoidsChainStarvation is the starvation regression test of
// the scheduler: in submission order the deep chain's head would run after
// every leaf; under critical-path priority it runs (nearly) first. The
// bound is generous — the receive loop may dispatch a couple of tasks
// before the queue fills.
func TestPriorityAvoidsChainStarvation(t *testing.T) {
	const width = 24
	if before := runChainVsLeaves(t); before > width/2 {
		t.Errorf("priority: %d of %d leaves ran before the chain head, want the head scheduled early", before, width)
	}
}

// eventLog is a concurrent Observer keeping every event.
type eventLog struct {
	mu     sync.Mutex
	events []core.Event
}

func (o *eventLog) Observe(e core.Event) {
	o.mu.Lock()
	o.events = append(o.events, e)
	o.mu.Unlock()
}

// TestObserverTiming verifies the controller reports each task as one
// TaskRan event carrying its queue timing: ready (entering the deque) not
// after the callback's start, start not after end, and the shard the task
// map placed the task on.
func TestObserverTiming(t *testing.T) {
	g, leaves, chain := chainVsLeaves(8, 4)
	obs := &eventLog{}
	m := core.NewModuloMap(2, g.Size())
	ctrl := New(WithWorkers(2), WithObserver(obs))
	if err := ctrl.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterCallback(0, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		tk, _ := g.Task(id)
		return make([]core.Payload, len(tk.Outgoing)), nil
	}); err != nil {
		t.Fatal(err)
	}
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range leaves {
		initial[id] = []core.Payload{{}}
	}
	initial[chain[0]] = []core.Payload{{}}
	if _, err := ctrl.Run(initial); err != nil {
		t.Fatal(err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.events) != g.Size() {
		t.Errorf("%d events, want one per task (%d)", len(obs.events), g.Size())
	}
	seen := make(map[core.TaskId]int)
	for _, e := range obs.events {
		seen[e.Task]++
		if e.Kind != core.TaskRan || e.Attempt != 1 || e.Shard != m.Shard(e.Task) {
			t.Errorf("task %d: kind %d, attempt %d, shard %d (placed on %d)", e.Task, e.Kind, e.Attempt, e.Shard, m.Shard(e.Task))
		}
		if e.Ready.IsZero() || e.Start.Before(e.Ready) || e.End.Before(e.Start) {
			t.Errorf("task %d: ready %v, start %v, end %v out of order", e.Task, e.Ready, e.Start, e.End)
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %d reported %d times", id, n)
		}
	}
}
