// Package charm implements the Charm++ runtime controller of the paper
// (§IV-B): tasks are chares — migratable objects that form the basic unit
// of parallel computation — collected in a single chare array created by
// the main chare. No task map is needed: the runtime places chares itself
// and periodically balances load by migrating them between processing
// elements (PEs).
//
// Communication between chares uses remote procedure calls addressed by
// chare id; a location manager resolves the current owner PE and forwards
// messages that race with a migration, as the Charm++ location manager
// does. The chare id is translated into a task id at execution time, which
// determines the callback to run. Same-PE messages skip serialization,
// mirroring the PUP framework's in-memory optimization.
package charm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// Options configures a Controller.
type Options struct {
	// PEs is the number of processing elements; zero selects 4.
	PEs int
	// LBPeriod triggers the load balancer every LBPeriod executed tasks;
	// zero disables periodic load balancing. The experiments in the paper
	// use periodic load balance.
	LBPeriod int
	// ArrayPerType creates one chare array per task type instead of a
	// single array for all tasks — the extension §IV-B anticipates ("having
	// multiple chare arrays for the different task types may lead to
	// better performance"). Each type's chares are placed round-robin
	// independently, so a type whose tasks cluster in the id space still
	// spreads evenly over the PEs.
	ArrayPerType bool
	// Observer, when non-nil, receives a TaskRan event per executed task.
	Observer core.Observer
}

// Controller executes task graphs in Charm++ style.
type Controller struct {
	core.Base
	opt Options

	lastStats      fabric.Stats
	lastMigrations uint64
}

// New returns a Charm++ controller with the given options.
func New(opt Options) *Controller {
	if opt.PEs <= 0 {
		opt.PEs = 4
	}
	return &Controller{opt: opt}
}

// Initialize implements core.Controller. The task map is ignored: the
// runtime places chares itself (initially round-robin over PEs, then by
// migration).
func (c *Controller) Initialize(g core.TaskGraph, _ core.TaskMap) error { return c.Bind(g) }

// Stats returns the inter-PE traffic of the last Run.
func (c *Controller) Stats() fabric.Stats { return c.lastStats }

// Migrations returns the number of chare migrations the load balancer
// performed during the last Run.
func (c *Controller) Migrations() uint64 { return c.lastMigrations }

// chare is the location-manager entry of one task, addressed by the task's
// plan index: its current owner PE and whether it has started. Its lock
// orders deliveries against migration and also guards the chare's input
// slots in the run's shared DataflowState.
type chare struct {
	mu      sync.Mutex
	owner   atomic.Int32 // written under mu; read lock-free when addressing an RPC
	started bool         // inputs complete, execution scheduled or done
}

// charmRun is the per-Run runtime instance.
type charmRun struct {
	core.Attempt
	c      *Controller
	plan   *core.Plan
	fab    *fabric.Fabric
	chares []chare
	st     *core.DataflowState // chare i's slots are touched only under chares[i].mu
	locMu  sync.Mutex          // serializes migrations

	executed   atomic.Int64
	migrations atomic.Uint64
}

// Run implements core.Controller.
func (c *Controller) Run(initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.RunContext(context.Background(), initial)
}

// RunContext implements core.Controller: a finished context aborts the run
// (cancelling the fabric so every PE loop unwinds) and the error wraps
// core.ErrCancelled.
func (c *Controller) RunContext(ctx context.Context, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	if err := c.Preflight(initial, nil, 0); err != nil {
		return nil, err
	}
	p := c.Plan()
	r := &charmRun{c: c, plan: p, fab: fabric.New(c.opt.PEs), chares: make([]chare, p.Size()), st: core.NewDataflowState(p, nil)}
	r.Cancel = r.fab.Cancel

	// The main chare creates the chare array(s): one chare per task,
	// placed round-robin over the PEs — either from a single array or,
	// with ArrayPerType, from one array per task type with independent
	// placement counters. The dataflow execution is started asynchronously
	// by the chares containing the input data: the external payloads are
	// sent as messages, and a task with no inputs at all is started by an
	// empty one.
	ids := p.TaskIds()
	perType := make(map[core.CallbackId]int)
	for i := range r.chares {
		t := p.TaskAt(i)
		owner := i % c.opt.PEs
		if c.opt.ArrayPerType {
			owner = perType[t.Callback] % c.opt.PEs
			perType[t.Callback]++
		}
		r.chares[i].owner.Store(int32(owner))
		start := initial[ids[i]]
		if len(t.Incoming) == 0 {
			start = []core.Payload{{}}
		}
		for _, pl := range start {
			r.fab.Send(fabric.Message{From: owner, To: owner, Src: core.ExternalInput, Dest: ids[i], Payload: pl})
		}
	}

	r.Watch(ctx, r.Fail)
	var wg sync.WaitGroup
	for pe := 0; pe < c.opt.PEs; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			if err := r.peLoop(pe); err != nil {
				r.Fail(err)
			}
		}(pe)
	}
	wg.Wait()

	c.lastStats = r.fab.Snapshot()
	c.lastMigrations = r.migrations.Load()
	return r.Result()
}

// peLoop is the scheduler loop of one processing element: it drains the
// PE's message queue, delivering RPCs to local chares and executing entry
// methods (task callbacks) inline, one at a time, as Charm++ does. It
// returns nil once the fabric closes — at quiescence or on another PE's
// failure.
func (r *charmRun) peLoop(pe int) error {
	for {
		m, ok := r.fab.Recv(pe)
		if !ok {
			return nil
		}
		i, exists := r.plan.Index(m.Dest)
		if !exists {
			return fmt.Errorf("charm: message for unknown chare %d", m.Dest)
		}
		ch := &r.chares[i]

		ch.mu.Lock()
		if to := int(ch.owner.Load()); to != pe {
			// The chare migrated while the message was in flight; the
			// location manager forwards it to the new owner.
			ch.mu.Unlock()
			r.fab.Send(fabric.Message{From: pe, To: to, Src: m.Src, Dest: m.Dest, Payload: m.Payload})
			continue
		}
		// The start message of an input-less task fills no slot.
		if len(r.plan.TaskAt(i).Incoming) > 0 {
			if err := r.st.Deliver(i, m.Src, m.Payload); err != nil {
				ch.mu.Unlock()
				return err
			}
		}
		in, ready := r.st.Take(i)
		if ready {
			ch.started = true
		}
		ch.mu.Unlock()

		if !ready {
			continue
		}
		if err := r.execute(pe, i, in); err != nil {
			return err
		}
		done := r.executed.Add(1)
		if done == int64(len(r.chares)) {
			// Last entry method ran; quiescence detected, stop all PEs.
			for p := 0; p < r.c.opt.PEs; p++ {
				r.fab.Close(p)
			}
			return nil
		}
		if lb := r.c.opt.LBPeriod; lb > 0 && done%int64(lb) == 0 {
			r.rebalance()
		}
	}
}

// execute runs the chare's entry method (the registered callback) and sends
// the outputs to the consuming chares as RPCs, in the forms core.FanOut
// decides on: a consumer on this PE may receive the payload pointer (the
// PUP framework's in-memory optimization), every other RPC carries the wire
// form.
func (r *charmRun) execute(pe, i int, in []core.Payload) error {
	t := r.plan.TaskAt(i)
	out, _, err := core.Step(r.c.Registry(), r.c.opt.Observer, t, in, core.Event{Shard: core.ShardId(pe)})
	if err != nil {
		return fmt.Errorf("charm: chare %d: %w", t.Id, err)
	}
	var batch []fabric.Message
	dest := r.plan.Consumers(i) // t.Outgoing flattened, as plan indices
	for slot, consumers := range t.Outgoing {
		to := dest[:len(consumers)]
		dest = dest[len(consumers):]
		if len(consumers) == 0 {
			r.Sink(t.Id, out[slot])
			continue
		}
		// Each consumer's PE is read once, so a migration racing this
		// fan-out cannot carry a pointer FanOut gave a local consumer to
		// another PE.
		base := len(batch)
		for k, dest := range consumers {
			batch = append(batch, fabric.Message{From: pe, To: int(r.chares[to[k]].owner.Load()), Src: t.Id, Dest: dest})
		}
		local := func(k int) bool { return batch[base+k].To == pe }
		f, err := core.FanOut(out[slot], len(consumers), local)
		if err != nil {
			return fmt.Errorf("charm: chare %d output slot %d: %w", t.Id, slot, err)
		}
		for k := range consumers {
			batch[base+k].Payload = f.To(k)
		}
	}
	err = r.fab.SendN(batch)
	// in is a window of st's arena, which outlives the task; it is cleared
	// only now because a relay callback may return it as out.
	clear(in)
	return err
}

// rebalance is the periodic load balancer: it measures the per-PE count of
// unfinished chares and migrates chares from overloaded PEs to underloaded
// ones. Migration only flips ownership in the location manager; in-flight
// messages are forwarded by the receiving PE.
func (r *charmRun) rebalance() {
	r.locMu.Lock()
	defer r.locMu.Unlock()

	pes := r.c.opt.PEs
	load := make([]int, pes)
	var pending []*chare
	for i := range r.chares {
		ch := &r.chares[i]
		ch.mu.Lock()
		if !ch.started {
			load[ch.owner.Load()]++
			pending = append(pending, ch)
		}
		ch.mu.Unlock()
	}
	if len(pending) == 0 {
		return
	}
	avg := (len(pending) + pes - 1) / pes
	// Greedy: move chares from PEs above the average to PEs below it.
	for _, ch := range pending {
		ch.mu.Lock()
		if ch.started {
			ch.mu.Unlock()
			continue
		}
		from := int(ch.owner.Load())
		if load[from] > avg {
			to := minIndex(load)
			if load[to] < load[from]-1 {
				ch.owner.Store(int32(to))
				load[from]--
				load[to]++
				r.migrations.Add(1)
			}
		}
		ch.mu.Unlock()
	}
}

func minIndex(xs []int) int {
	mi := 0
	for i, x := range xs {
		if x < xs[mi] {
			mi = i
		}
	}
	return mi
}

var _ core.Controller = (*Controller)(nil)
