package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Observer receives execution notifications from controllers. Tests and the
// tracing tools use it to verify that every logical task executes exactly
// once and in dependency order, independent of the runtime.
type Observer interface {
	// TaskExecuted is called after a task's callback returns successfully.
	TaskExecuted(id TaskId, shard ShardId, cb CallbackId)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(id TaskId, shard ShardId, cb CallbackId)

// TaskExecuted implements Observer.
func (f ObserverFunc) TaskExecuted(id TaskId, shard ShardId, cb CallbackId) { f(id, shard, cb) }

// SchedObserver is an Observer that additionally receives scheduling
// timing: controllers with a dispatch queue report, per task, when the
// ready task entered the queue and when a worker picked it up. The
// difference is the task's queue wait — time spent ready but waiting for a
// worker, the quantity the priority scheduler minimizes for critical tasks.
// TaskQueued is called on the dispatching worker just before the callback
// runs; controllers without a queue (serial, inline) never call it.
type SchedObserver interface {
	Observer
	TaskQueued(id TaskId, enqueued, started time.Time)
}

// ReplayObserver is an Observer extension for fault-tolerant controllers:
// TaskReplayed is called when a task's recorded outputs were re-emitted
// from the lineage ledger instead of re-running its callback.
type ReplayObserver interface {
	TaskReplayed(id TaskId, shard ShardId, cb CallbackId)
}

// RecoveryObserver receives recovery-epoch notifications from a
// fault-tolerant coordinator: epoch is the attempt number about to start
// (2 = first retry) and lost lists the shards declared dead so far, in the
// original map's numbering.
type RecoveryObserver interface {
	RecoveryStarted(epoch int, lost []ShardId)
}

// ExecutionLog is a thread-safe Observer that records the order in which
// tasks executed.
type ExecutionLog struct {
	mu      sync.Mutex
	Order   []TaskId
	Shards  map[TaskId]ShardId
	counter map[TaskId]int
}

// NewExecutionLog returns an empty execution log.
func NewExecutionLog() *ExecutionLog {
	return &ExecutionLog{Shards: make(map[TaskId]ShardId), counter: make(map[TaskId]int)}
}

// TaskExecuted implements Observer.
func (l *ExecutionLog) TaskExecuted(id TaskId, shard ShardId, cb CallbackId) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Order = append(l.Order, id)
	l.Shards[id] = shard
	l.counter[id]++
}

// Executions returns how many times the given task ran.
func (l *ExecutionLog) Executions(id TaskId) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counter[id]
}

// Len returns the number of recorded executions.
func (l *ExecutionLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.Order)
}

// Serial executes a task graph in a single goroutine, in dependency order.
// It is the reference implementation every runtime controller is tested
// against, and — per the paper — the degenerate case of over-decomposition:
// any graph can run serially while preserving a correct order of execution.
type Serial struct {
	graph    TaskGraph
	registry *Registry
	Observer Observer
}

// NewSerial returns an uninitialized serial controller.
func NewSerial() *Serial { return &Serial{registry: NewRegistry()} }

// Initialize implements Controller. The task map is ignored; a serial run
// places every task on shard 0.
func (s *Serial) Initialize(g TaskGraph, _ TaskMap) error {
	if g == nil {
		return fmt.Errorf("core: nil task graph")
	}
	if err := Validate(g); err != nil {
		return err
	}
	s.graph = g
	return nil
}

// RegisterCallback implements Controller.
func (s *Serial) RegisterCallback(cb CallbackId, fn Callback) error {
	if s.graph == nil {
		return ErrNotInitialized
	}
	return s.registry.Register(cb, fn)
}

// Run implements Controller.
func (s *Serial) Run(initial map[TaskId][]Payload) (map[TaskId][]Payload, error) {
	return s.RunContext(context.Background(), initial)
}

// RunContext implements Controller. The serial loop checks the context
// between tasks, so cancellation latency is bounded by the longest single
// callback.
func (s *Serial) RunContext(ctx context.Context, initial map[TaskId][]Payload) (map[TaskId][]Payload, error) {
	if s.graph == nil {
		return nil, ErrNotInitialized
	}
	if err := s.registry.Covers(s.graph); err != nil {
		return nil, err
	}
	if err := CheckInitial(s.graph, initial); err != nil {
		return nil, err
	}

	st := NewDataflowState(s.graph)
	for id, ps := range initial {
		for _, p := range ps {
			if err := st.DeliverExternal(id, p); err != nil {
				return nil, err
			}
		}
	}

	rounds, err := Levels(s.graph)
	if err != nil {
		return nil, err
	}
	results := make(map[TaskId][]Payload)
	for _, round := range rounds {
		for _, id := range round {
			if ctx.Err() != nil {
				return nil, Cancelled(ctx)
			}
			t, _ := s.graph.Task(id)
			in, ready := st.Take(id)
			if !ready {
				return nil, fmt.Errorf("core: task %d reached in dependency order without all inputs", id)
			}
			out, _, err := Step(s.registry, s.Observer, t, in, 0)
			if err != nil {
				return nil, err
			}
			for slot, consumers := range t.Outgoing {
				if len(consumers) == 0 {
					if IsDead(out[slot]) {
						continue
					}
					results[id] = append(results[id], out[slot])
					continue
				}
				for i, c := range consumers {
					p := out[slot]
					if i > 0 {
						// Fan-out: every consumer after the first receives
						// an owned copy.
						cp, err := p.CloneForWire()
						if err != nil {
							return nil, fmt.Errorf("core: task %d output slot %d fans out: %w", id, slot, err)
						}
						p = cp
					}
					if err := st.Deliver(c, id, p); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return results, nil
}

// DataflowState tracks, for every task of a graph, which input slots have
// been filled. Controllers share it as their readiness bookkeeping; it is
// not safe for concurrent use — each controller shard guards its own state.
type DataflowState struct {
	graph   TaskGraph
	pending map[TaskId]*taskInputs
}

type taskInputs struct {
	task    Task
	slots   []Payload
	filled  []bool
	missing int
}

// NewDataflowState returns empty input-tracking state for the graph.
func NewDataflowState(g TaskGraph) *DataflowState {
	return &DataflowState{graph: g, pending: make(map[TaskId]*taskInputs)}
}

func (st *DataflowState) entry(id TaskId) (*taskInputs, error) {
	ti, ok := st.pending[id]
	if ok {
		return ti, nil
	}
	t, ok := st.graph.Task(id)
	if !ok {
		return nil, fmt.Errorf("core: delivery to unknown task %d", id)
	}
	ti = &taskInputs{
		task:    t,
		slots:   make([]Payload, len(t.Incoming)),
		filled:  make([]bool, len(t.Incoming)),
		missing: len(t.Incoming),
	}
	st.pending[id] = ti
	return ti, nil
}

// Deliver records a payload arriving at task id from producer from. When a
// producer feeds several input slots of the same consumer, successive
// deliveries fill successive slots; producers emit output slots in order and
// transports preserve pairwise FIFO, so slot assignment is deterministic.
// It returns the readiness of the task after the delivery via Ready.
//
// A shared fan-out wire form is stored as-is: whoever hands the assembled
// inputs (Take) to a task callback must detach private copies first
// (Payload.Own), so the detach cost lands on the executing worker rather
// than on the delivery loop.
func (st *DataflowState) Deliver(id, from TaskId, p Payload) error {
	ti, err := st.entry(id)
	if err != nil {
		return err
	}
	for slot, producer := range ti.task.Incoming {
		if producer == from && !ti.filled[slot] {
			ti.slots[slot] = p
			ti.filled[slot] = true
			ti.missing--
			return nil
		}
	}
	return fmt.Errorf("core: task %d has no open input slot for producer %d", id, from)
}

// DeliverExternal records an externally provided payload, filling the next
// open ExternalInput slot.
func (st *DataflowState) DeliverExternal(id TaskId, p Payload) error {
	return st.Deliver(id, ExternalInput, p)
}

// Ready reports whether every input slot of the task has been filled.
func (st *DataflowState) Ready(id TaskId) bool {
	ti, ok := st.pending[id]
	if !ok {
		// Unseen task: ready only if it has no inputs at all.
		t, exists := st.graph.Task(id)
		return exists && len(t.Incoming) == 0
	}
	return ti.missing == 0
}

// Take returns the assembled input payloads of a ready task and releases the
// bookkeeping. ok is false when the task is not ready.
func (st *DataflowState) Take(id TaskId) ([]Payload, bool) {
	ti, ok := st.pending[id]
	if !ok {
		t, exists := st.graph.Task(id)
		if exists && len(t.Incoming) == 0 {
			return nil, true
		}
		return nil, false
	}
	if ti.missing != 0 {
		return nil, false
	}
	delete(st.pending, id)
	return ti.slots, true
}
