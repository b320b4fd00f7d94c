package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Observer receives the execution events of a run. Tests and the tracing
// tools use it to verify that every logical task executes exactly once and
// in dependency order, independent of the runtime. Observe may be called
// from several workers at once.
type Observer interface {
	Observe(Event)
}

// EventKind says what an Event reports; each kind has one emission site.
type EventKind uint8

const (
	// TaskRan: a task's callback returned successfully (Step).
	TaskRan EventKind = iota + 1
	// TaskReplayed: a task's recorded outputs were re-emitted from the
	// lineage ledger instead of running its callback (mpi's execute).
	TaskReplayed
	// EpochRetried: a fault-tolerant run is about to retry (mpi's
	// supervise).
	EpochRetried
)

// Event is one execution event. Task events fill Task through End; a retry
// fills Epoch and Lost.
type Event struct {
	Kind     EventKind
	Task     TaskId
	Callback CallbackId
	Shard    ShardId
	// Attempt is the task's execution attempt: 1 for its first run, higher
	// after re-execution in a recovery epoch, 0 on a replay.
	Attempt int
	// Ready is when the task entered a dispatch queue; zero for runtimes
	// without one (serial, inline). Start and End bound the callback.
	Ready, Start, End time.Time
	// Epoch is the attempt number about to start (2 = first retry) and Lost
	// the shards declared dead so far, in the original map's numbering.
	Epoch int
	Lost  []ShardId
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

// Observe implements Observer: it logs TaskRan events.
func (l *ExecutionLog) Observe(e Event) {
	if e.Kind != TaskRan {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Order = append(l.Order, e.Task)
	l.Shards[e.Task] = e.Shard
	l.counter[e.Task]++
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
	Base
	Observer Observer
}

// NewSerial returns an uninitialized serial controller.
func NewSerial() *Serial { return &Serial{} }

// Initialize implements Controller. The task map is ignored; a serial run
// places every task on shard 0.
func (s *Serial) Initialize(g TaskGraph, _ TaskMap) error { return s.Bind(g) }

// Run implements Controller.
func (s *Serial) Run(initial map[TaskId][]Payload) (map[TaskId][]Payload, error) {
	return s.RunContext(context.Background(), initial)
}

// RunContext implements Controller. The serial loop checks the context
// between tasks, so cancellation latency is bounded by the longest single
// callback.
func (s *Serial) RunContext(ctx context.Context, initial map[TaskId][]Payload) (map[TaskId][]Payload, error) {
	if err := s.Preflight(initial, nil, 0); err != nil {
		return nil, err
	}
	p := s.plan

	st := NewDataflowState(p, nil)
	for id, ps := range initial {
		i, _ := p.Index(id)
		for _, pl := range ps {
			if err := st.Deliver(i, ExternalInput, pl); err != nil {
				return nil, err
			}
		}
	}

	var att Attempt
	for _, round := range p.Levels() {
		for _, id := range round {
			if ctx.Err() != nil {
				return nil, Cancelled(ctx)
			}
			i, _ := p.Index(id)
			t := p.tasks[i]
			in, ready := st.Take(i)
			if !ready {
				return nil, fmt.Errorf("core: task %d reached in dependency order without all inputs", id)
			}
			out, _, err := Step(&s.reg, s.Observer, t, in, Event{})
			if err != nil {
				return nil, err
			}
			dest := p.Consumers(i)
			for slot, consumers := range t.Outgoing {
				if len(consumers) == 0 {
					att.Sink(id, out[slot])
					continue
				}
				for k := range consumers {
					pl := out[slot]
					if k > 0 {
						// Fan-out: every consumer after the first receives
						// an owned copy.
						cp, err := pl.CloneForWire()
						if err != nil {
							return nil, fmt.Errorf("core: task %d output slot %d fans out: %w", id, slot, err)
						}
						pl = cp
					}
					if err := st.Deliver(int(dest[k]), id, pl); err != nil {
						return nil, err
					}
				}
				dest = dest[len(consumers):]
			}
			// in is a window of st's arena, which outlives the task; it is
			// cleared only now because a relay callback may return it as out.
			clear(in)
		}
	}
	return att.Result()
}

// DataflowState tracks which input slots of a plan's tasks have been filled:
// one count of missing inputs per task and one payload arena holding every
// tracked task's input slots back to back. Tasks are addressed by dense plan
// index. Controllers share it as their readiness bookkeeping. Calls for one
// task must not overlap; calls for different tasks touch disjoint memory, so
// a controller may guard a whole state (an mpi rank loop owns its own) or
// each task (charm locks the chare).
type DataflowState struct {
	plan    *Plan
	base    []int32 // per task: its first slot in the arena
	missing []int32 // per task: unfilled input slots; negative once taken or when not tracked
	slots   []Payload
	filled  []bool
}

// NewDataflowState returns empty input-tracking state for the tasks of the
// plan listed in local (dense indices); a nil local tracks every task.
func NewDataflowState(p *Plan, local []int32) *DataflowState {
	n := len(p.tasks)
	st := &DataflowState{plan: p, base: make([]int32, n), missing: make([]int32, n)}
	for i := range st.missing {
		st.missing[i] = -1
	}
	total := int32(0)
	track := func(i int) {
		st.base[i], st.missing[i] = total, int32(len(p.tasks[i].Incoming))
		total += st.missing[i]
	}
	if local == nil {
		for i := range p.tasks {
			track(i)
		}
	}
	for _, i := range local {
		track(int(i))
	}
	st.slots = make([]Payload, total)
	st.filled = make([]bool, total)
	return st
}

// Deliver records a payload arriving at the task with index i from producer
// from (ExternalInput for an externally provided payload). When a producer
// feeds several input slots of the same consumer, successive deliveries fill
// successive slots; producers emit output slots in order and transports
// preserve pairwise FIFO, so slot assignment is deterministic.
//
// A shared fan-out wire form is stored as-is: whoever hands the assembled
// inputs (Take) to a task callback must detach private copies first
// (Payload.Own), so the detach cost lands on the executing worker rather
// than on the delivery loop.
func (st *DataflowState) Deliver(i int, from TaskId, p Payload) error {
	if i < 0 || i >= len(st.missing) || st.missing[i] < 0 {
		return fmt.Errorf("core: delivery to a task not awaiting inputs here (index %d)", i)
	}
	b := int(st.base[i])
	for slot, producer := range st.plan.tasks[i].Incoming {
		if producer == from && !st.filled[b+slot] {
			st.slots[b+slot] = p
			st.filled[b+slot] = true
			st.missing[i]--
			return nil
		}
	}
	return fmt.Errorf("core: task %d has no open input slot for producer %d", st.plan.ids[i], from)
}

// Ready reports whether every input slot of the task has been filled and
// the inputs not yet taken.
func (st *DataflowState) Ready(i int) bool {
	return i >= 0 && i < len(st.missing) && st.missing[i] == 0
}

// Take returns the assembled input payloads of a ready task — a window of
// the arena, owned by the caller from here on — and retires the task. ok is
// false when the task is not ready.
func (st *DataflowState) Take(i int) ([]Payload, bool) {
	if !st.Ready(i) {
		return nil, false
	}
	st.missing[i] = -1
	return st.Inputs(i), true
}

// Inputs returns the window of the arena holding task i's input slots —
// the slice Take hands out, nil for a task without inputs. Reading it after
// Take needs no lock: no later call touches a retired task's window.
func (st *DataflowState) Inputs(i int) []Payload {
	b, n := int(st.base[i]), len(st.plan.tasks[i].Incoming)
	if n == 0 {
		return nil
	}
	return st.slots[b : b+n : b+n]
}
