package core

import (
	"context"
	"sync"
)

// The controller chassis: what is identical in every runtime controller,
// said once. The paper's claim (§III–IV) is that all runtimes execute the
// same tasks and differ only in how they place and move work; accordingly a
// controller is a Base (the compiled plan and the callbacks), runs as an
// Attempt (failure capture, sinks, cancellation), steps tasks with Step,
// tracks readiness in a DataflowState and decides copies with FanOut — and
// keeps private only its placement and transport.

// Base is the part of a controller that exists before it runs: the compiled
// plan and the callback registry. Every controller type embeds it; the zero
// value is an uninitialized controller.
type Base struct {
	plan *Plan
	reg  Registry
}

// Bind compiles g — which validates it — and makes the plan the graph every
// later Run executes. A failed Bind leaves the previous binding in place.
func (b *Base) Bind(g TaskGraph) error {
	p, err := Compile(g)
	if err != nil {
		return err
	}
	b.plan = p
	return nil
}

// Plan returns the bound plan, nil before Bind.
func (b *Base) Plan() *Plan { return b.plan }

// Registry returns the controller's callback registry.
func (b *Base) Registry() *Registry { return &b.reg }

// RegisterCallback implements Controller.
func (b *Base) RegisterCallback(cb CallbackId, fn Callback) error {
	if b.plan == nil {
		return ErrNotInitialized
	}
	return b.reg.Register(cb, fn)
}

// Preflight is the validation every run starts with: the controller is
// bound, every task type has a callback, and initial covers exactly the
// ExternalInput slots of the tasks the placement shardOf (Plan.Place) puts
// on shard — of the whole graph when shardOf is nil.
func (b *Base) Preflight(initial map[TaskId][]Payload, shardOf []int32, shard int) error {
	if b.plan == nil {
		return ErrNotInitialized
	}
	if err := b.reg.Covers(b.plan); err != nil {
		return err
	}
	return b.plan.CheckInitial(initial, shardOf, shard)
}

// Attempt is the run-scoped half of the chassis: the first failure and the
// cancellation it triggers, the sink payloads, and the context watcher. The
// zero value with Cancel set is ready to use; an Attempt must not be copied
// after first use.
type Attempt struct {
	// Cancel unblocks everything the attempt has in flight — a fabric's or a
	// region store's Cancel. Every Fail calls it, so it must be idempotent
	// and safe for concurrent use.
	Cancel func()

	stop  func() // retires the context watcher; nil when none runs
	mu    sync.Mutex
	err   error
	sinks map[TaskId][]Payload
}

// Fail records err as the attempt's failure unless an earlier one — the
// cause, where later ones are its echoes — is already recorded, then
// cancels. Cancel has run by the time any Fail returns.
func (a *Attempt) Fail(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
	a.Cancel()
}

// Err returns the first failure, nil while there is none.
func (a *Attempt) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Sink records a payload leaving the dataflow on a sink slot of task id;
// successive calls for one task keep their order. A dead token reaching a
// sink is a deactivated branch's non-result and is dropped.
func (a *Attempt) Sink(id TaskId, p Payload) {
	if IsDead(p) {
		return
	}
	a.mu.Lock()
	if a.sinks == nil {
		a.sinks = make(map[TaskId][]Payload)
	}
	a.sinks[id] = append(a.sinks[id], p)
	a.mu.Unlock()
}

// Watch calls abort with an error wrapping ErrCancelled when ctx ends
// before Result — a.Fail for a controller whose Cancel reaches everything.
// Result joins the watcher, so abort never runs, nor is still running, once
// Result has returned.
func (a *Attempt) Watch(ctx context.Context, abort func(error)) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	// Unbuffered: the watcher's last act is this receive, so stop returns
	// only after abort completed or can no longer start.
	stopc := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			abort(Cancelled(ctx))
			<-stopc
		case <-stopc:
		}
	}()
	a.stop = func() { stopc <- struct{}{} }
}

// Result ends the attempt: it retires the watcher and returns the sinks, or
// the first failure and no sinks. Call it once everything the attempt
// started has returned.
func (a *Attempt) Result() (map[TaskId][]Payload, error) {
	if a.stop != nil {
		a.stop()
		a.stop = nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return nil, a.err
	}
	if a.sinks == nil {
		a.sinks = make(map[TaskId][]Payload)
	}
	return a.sinks, nil
}

// FanOut is the copy-on-fan-out decision for one output slot with the given
// number of consumers. When lastLocal, the last consumer shares the
// producer's memory and receives p itself — the pointer pass of §IV-A;
// every other consumer receives the returned wire form. A single wire
// consumer with no pointer pass is handed the relinquished buffer as-is;
// several share one immutable serialization (SharedPayload), which never
// aliases a pointer-passed p. The zero Payload is returned when no consumer
// needs a wire form.
func FanOut(p Payload, consumers int, lastLocal bool) (wire Payload, err error) {
	wireConsumers := consumers
	if lastLocal {
		wireConsumers--
	}
	switch {
	case wireConsumers == 0:
		return Payload{}, nil
	case wireConsumers == 1 && !lastLocal:
		return p.WireForm()
	default:
		return SharedPayload(p, wireConsumers, lastLocal)
	}
}
