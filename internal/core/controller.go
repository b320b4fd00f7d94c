package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// Callback is the implementation of one task type. It receives one payload
// per input slot (slot order matches Task.Incoming) and the id of the task
// being executed, and returns one payload per output slot (slot order
// matches Task.Outgoing).
//
// Callbacks must be idempotent and hold no persistent state: the framework
// guarantees each logical task runs exactly once per dataflow execution, but
// runtimes are free to execute tasks on any shard and in any order
// consistent with the dataflow.
type Callback func(inputs []Payload, id TaskId) ([]Payload, error)

// CallbackRegistrar is the subset of Controller needed to bind callback
// implementations. Besides full controllers, in-situ groups implement it.
type CallbackRegistrar interface {
	// RegisterCallback binds the implementation of a task type.
	RegisterCallback(cb CallbackId, fn Callback) error
}

// Controller executes a task graph on a particular runtime. All runtime
// controllers (MPI, Charm++, Legion SPMD, Legion index-launch, serial)
// implement this interface so switching between them is a one-line change.
type Controller interface {
	// Initialize binds the controller to a graph and a task map. Controllers
	// that place tasks themselves (Charm++) accept a nil map.
	Initialize(g TaskGraph, m TaskMap) error
	// RegisterCallback binds the implementation of a task type.
	RegisterCallback(cb CallbackId, fn Callback) error
	// Run feeds the initial external inputs to the leaf tasks, executes the
	// dataflow to completion and returns the payloads produced on sink
	// output slots, keyed by the producing task. It is RunContext with a
	// background context.
	Run(initial map[TaskId][]Payload) (map[TaskId][]Payload, error)
	// RunContext is Run with cancellation and deadline propagation: when the
	// context ends, worker pools stop picking up tasks, transports are
	// cancelled, and the call returns an error wrapping ErrCancelled (test
	// with errors.Is). Like Run, it blocks until the dataflow completes or
	// aborts.
	RunContext(ctx context.Context, initial map[TaskId][]Payload) (map[TaskId][]Payload, error)
}

// Sentinel errors shared by all controllers.
var (
	// ErrNotInitialized is returned when Run or RegisterCallback is called
	// before Initialize.
	ErrNotInitialized = errors.New("core: controller not initialized")
	// ErrNotSerializable is returned when an in-memory payload must cross a
	// shard boundary but its object does not implement Serializable.
	ErrNotSerializable = errors.New("core: payload object does not implement Serializable")
	// ErrUnregisteredCallback is returned when the graph references a task
	// type with no registered implementation.
	ErrUnregisteredCallback = errors.New("core: callback not registered")
)

// MapError reports an inconsistency between a task graph and a task map.
type MapError struct {
	Id    TaskId
	Shard ShardId
	Msg   string
}

// Error implements error.
func (e *MapError) Error() string {
	return fmt.Sprintf("core: task %d: %s (shard %d)", e.Id, e.Msg, e.Shard)
}

// Registry stores the callback implementations registered with a controller.
// The zero value is an empty registry. It is copy-on-write: Register
// publishes a new map, so lookups — one per task, from every worker — take
// no lock and are safe concurrently with registration.
type Registry struct {
	mu  sync.Mutex   // serializes Register
	fns atomic.Value // map[CallbackId]Callback, never mutated once stored
}

// Register binds fn to cb, replacing any previous binding.
func (r *Registry) Register(cb CallbackId, fn Callback) error {
	if fn == nil {
		return fmt.Errorf("core: nil callback for id %d", cb)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.load()
	fns := make(map[CallbackId]Callback, len(old)+1)
	maps.Copy(fns, old)
	fns[cb] = fn
	r.fns.Store(fns)
	return nil
}

// load returns the current bindings; nil before the first Register.
func (r *Registry) load() map[CallbackId]Callback {
	fns, _ := r.fns.Load().(map[CallbackId]Callback)
	return fns
}

// Lookup returns the implementation of cb.
func (r *Registry) Lookup(cb CallbackId) (Callback, bool) {
	fn, ok := r.load()[cb]
	return fn, ok
}

// Covers checks that every task type of the graph has an implementation.
func (r *Registry) Covers(g TaskGraph) error {
	fns := r.load()
	for _, cb := range g.Callbacks() {
		if _, ok := fns[cb]; !ok {
			return fmt.Errorf("%w: callback %d", ErrUnregisteredCallback, cb)
		}
	}
	return nil
}

// SafeInvoke runs a callback and converts a panic into an error, so a
// failing task aborts the dataflow cleanly instead of tearing down the
// whole process — the paper's regression-testing role for the backends
// depends on failures being observable.
func SafeInvoke(fn Callback, in []Payload, id TaskId) (out []Payload, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("core: task %d panicked: %v", id, r)
		}
	}()
	return fn(in, id)
}

// Step is the per-task kernel every controller shares: given a ready task
// and its assembled inputs it decides whether the task runs at all and, if
// so, runs it. A dead input cancels the task (CancelDead): the callback and
// the Observer are skipped, cancelled is true and out carries one dead
// token per output slot for routing. Otherwise the inputs are detached from
// any shared fan-out wire form (a callback owns its inputs), the callback
// is looked up in reg and invoked with panics converted to errors, the
// output count is checked against the graph's declaration. With an obs
// (nil for none) the callback is timed and obs is told in one TaskRan
// event: ev brings what only the caller knows — Shard, Ready, Attempt (0
// reports as 1) — and Step adds the task and the instants. Gathering
// inputs, ledgers and routing stay with the calling runtime.
func Step(reg *Registry, obs Observer, t Task, in []Payload, ev Event) (out []Payload, cancelled bool, err error) {
	if out, cancelled = CancelDead(t, in); cancelled {
		return out, true, nil
	}
	fn, ok := reg.Lookup(t.Callback)
	if !ok {
		return nil, false, fmt.Errorf("%w: callback %d", ErrUnregisteredCallback, t.Callback)
	}
	for i := range in {
		in[i] = in[i].Own()
	}
	if obs != nil {
		ev.Start = time.Now()
	}
	out, err = SafeInvoke(fn, in, t.Id)
	if err != nil {
		return nil, false, fmt.Errorf("core: task %d (callback %d): %w", t.Id, t.Callback, err)
	}
	if len(out) != len(t.Outgoing) {
		return nil, false, fmt.Errorf("core: task %d produced %d outputs, graph declares %d slots", t.Id, len(out), len(t.Outgoing))
	}
	if obs != nil {
		ev.End = time.Now()
		ev.Kind, ev.Task, ev.Callback, ev.Attempt = TaskRan, t.Id, t.Callback, max(ev.Attempt, 1)
		obs.Observe(ev)
	}
	return out, false, nil
}

// CheckInitial verifies that the initial inputs passed to Run exactly cover
// the external input slots of the graph: every externally fed task receives
// exactly as many payloads as it has ExternalInput slots, and no payloads
// are addressed to tasks without external inputs.
func CheckInitial(g TaskGraph, initial map[TaskId][]Payload) error {
	p, err := Compile(g)
	if err != nil {
		return err
	}
	return p.CheckInitial(initial, nil, 0)
}

// CheckInitial is the package-level CheckInitial restricted to the tasks a
// placement (Place) puts on one shard — what that shard's Run must be
// handed, no more, no less. A nil shardOf checks the whole graph.
func (p *Plan) CheckInitial(initial map[TaskId][]Payload, shardOf []int32, shard int) error {
	here := func(i int) bool { return shardOf == nil || int(shardOf[i]) == shard }
	for id, ps := range initial {
		i, ok := p.Index(id)
		if !ok || !here(i) {
			return fmt.Errorf("core: initial input for unknown or non-local task %d", id)
		}
		if p.ext[i] == 0 {
			return fmt.Errorf("core: task %d has no external inputs but received %d initial payloads", id, len(ps))
		}
		if len(ps) != int(p.ext[i]) {
			return fmt.Errorf("core: task %d expects %d external inputs, got %d", id, p.ext[i], len(ps))
		}
	}
	for i, id := range p.ids {
		if p.ext[i] == 0 || !here(i) {
			continue
		}
		if _, ok := initial[id]; !ok {
			return fmt.Errorf("core: task %d expects %d external inputs but none were provided", id, p.ext[i])
		}
	}
	return nil
}
