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

// Fan is one output slot's copy-on-fan-out decision: the form each
// consumer receives (To).
type Fan struct {
	out, wire Payload
	last      int
	ptr       uint64   // bit j: consumer last-j receives out
	more      []uint64 // ptr's bits from j = 64 on (an Immutable out only)
}

// FanOut decides the copies of output p for its consumers; local(k) says
// consumer k may share the producer's memory. An Immutable object goes to
// every local consumer by pointer, anything else to the last consumer only,
// if local (the pointer pass of §IV-A). The others get one wire form: a
// lone one the relinquished buffer as-is, several one shared serialization
// (SharedPayload) that never aliases p.
func FanOut(p Payload, consumers int, local func(k int) bool) (f Fan, err error) {
	f = Fan{out: p, last: consumers - 1}
	span := min(consumers, 1)
	if p.Object != nil {
		if _, ok := p.Object.(Immutable); ok {
			span = consumers
		}
	}
	wireConsumers := consumers
	for j := 0; j < span; j++ {
		if !local(f.last - j) {
			continue
		}
		wireConsumers--
		if j < 64 {
			f.ptr |= 1 << j
			continue
		}
		if f.more == nil {
			f.more = make([]uint64, (span-1)/64)
		}
		f.more[j/64-1] |= 1 << (j % 64)
	}
	aliased := wireConsumers < consumers
	switch {
	case wireConsumers == 0:
	case wireConsumers == 1 && !aliased:
		f.wire, err = p.WireForm()
	default:
		f.wire, err = SharedPayload(p, wireConsumers, aliased)
	}
	return f, err
}

// To returns the payload consumer k receives.
func (f *Fan) To(k int) Payload {
	j := f.last - k
	if j < 64 && f.ptr>>j&1 != 0 || j >= 64 && f.more != nil && f.more[j/64-1]>>(j%64)&1 != 0 {
		return f.out
	}
	return f.wire
}
