package mpi

import (
	"errors"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

// TestReceiveLoopDrainsWhileWorkersSaturated is the regression test for the
// dispatch-blocks-receive bug: the old per-rank semaphore made the receive
// loop block inside dispatch whenever all workers were busy, so the rank
// stopped dequeuing messages. With the persistent worker pool, dispatch only
// enqueues, so the receive loop always keeps draining.
//
// The graph is built so that the old scheme deadlocks:
//
//	rank 0: A1, A2 (external), C (input from E)
//	rank 1: E (external) -> slot 0: C (rank 0), slot 1: F (rank 1)
//
// With Workers=2 (one homed worker per rank), A1 occupies one worker until
// C runs, leaving a single worker for everything else. C becomes ready only
// when rank 0's receive loop dequeues E's message while A1 still holds a
// worker. The old code instead parked the loop dispatching A2, so C never
// became ready.
func TestReceiveLoopDrainsWhileWorkersSaturated(t *testing.T) {
	const (
		a1 core.TaskId = iota
		a2
		e
		f
		c
	)
	g := core.NewExplicitGraph([]core.Task{
		{Id: a1, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{}}},
		{Id: a2, Callback: 1, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{}}},
		{Id: e, Callback: 1, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{c}, {f}}},
		{Id: f, Callback: 1, Incoming: []core.TaskId{e}, Outgoing: [][]core.TaskId{{}}},
		{Id: c, Callback: 2, Incoming: []core.TaskId{e}, Outgoing: [][]core.TaskId{{}}},
	})
	tmap := core.NewFuncMap(2, g.TaskIds(), func(id core.TaskId) core.ShardId {
		if id == e || id == f {
			return 1
		}
		return 0
	})

	ctrl := New(WithWorkers(2))
	if err := ctrl.Initialize(g, tmap); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	// Callback 0 (A1): park one of the two workers until C runs.
	ctrl.RegisterCallback(0, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		select {
		case <-released:
			return []core.Payload{{}}, nil
		case <-time.After(10 * time.Second):
			return nil, errors.New("worker never released: receive loop stalled while the pool was saturated")
		}
	})
	// Callback 1: emit one empty payload per slot.
	ctrl.RegisterCallback(1, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		tk, _ := g.Task(id)
		return make([]core.Payload, len(tk.Outgoing)), nil
	})
	// Callback 2 (C): runs only after rank 0's receive loop dequeued E's
	// message; release A1.
	ctrl.RegisterCallback(2, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		close(released)
		return []core.Payload{{}}, nil
	})

	initial := map[core.TaskId][]core.Payload{
		a1: {{}}, a2: {{}}, e: {{}},
	}
	done := make(chan error, 1)
	go func() {
		_, err := ctrl.Run(initial)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run deadlocked: the receive loop is blocked behind a saturated worker pool")
	}
}
