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
	// Observer, when non-nil, receives a notification per executed task.
	Observer core.Observer
}

// Controller executes task graphs in Charm++ style.
type Controller struct {
	opt   Options
	graph core.TaskGraph
	reg   *core.Registry

	lastStats      fabric.Stats
	lastMigrations uint64
}

// New returns a Charm++ controller with the given options.
func New(opt Options) *Controller {
	if opt.PEs <= 0 {
		opt.PEs = 4
	}
	return &Controller{opt: opt, reg: core.NewRegistry()}
}

// Initialize implements core.Controller. The task map is ignored: the
// runtime places chares itself (initially round-robin over PEs, then by
// migration).
func (c *Controller) Initialize(g core.TaskGraph, _ core.TaskMap) error {
	if g == nil {
		return fmt.Errorf("charm: nil task graph")
	}
	p, err := core.Compile(g)
	if err != nil {
		return err
	}
	c.graph = p
	return nil
}

// RegisterCallback implements core.Controller.
func (c *Controller) RegisterCallback(cb core.CallbackId, fn core.Callback) error {
	if c.graph == nil {
		return core.ErrNotInitialized
	}
	return c.reg.Register(cb, fn)
}

// Stats returns the inter-PE traffic of the last Run.
func (c *Controller) Stats() fabric.Stats { return c.lastStats }

// Migrations returns the number of chare migrations the load balancer
// performed during the last Run.
func (c *Controller) Migrations() uint64 { return c.lastMigrations }

// chare is the runtime state of one task: its current owner PE and the
// input slots filled so far. A chare is locked individually; the location
// manager lock orders migrations against ownership lookups.
type chare struct {
	mu      sync.Mutex
	task    core.Task
	owner   int
	slots   []core.Payload
	filled  []bool
	missing int
	started bool // inputs complete, execution scheduled or done
}

// charmRun is the per-Run runtime instance.
type charmRun struct {
	c      *Controller
	fab    *fabric.Fabric
	chares map[core.TaskId]*chare
	locMu  sync.Mutex // serializes migrations and owner queries during LB

	executed   atomic.Int64
	total      int64
	migrations atomic.Uint64

	results map[core.TaskId][]core.Payload
	resMu   sync.Mutex

	firstErr error
	errMu    sync.Mutex
}

// Run implements core.Controller.
func (c *Controller) Run(initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.RunContext(context.Background(), initial)
}

// RunContext implements core.Controller: a finished context aborts the run
// (cancelling the fabric so every PE loop unwinds) and the error wraps
// core.ErrCancelled.
func (c *Controller) RunContext(ctx context.Context, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	if c.graph == nil {
		return nil, core.ErrNotInitialized
	}
	if err := c.reg.Covers(c.graph); err != nil {
		return nil, err
	}
	if err := core.CheckInitial(c.graph, initial); err != nil {
		return nil, err
	}

	r := &charmRun{
		c:       c,
		fab:     fabric.New(c.opt.PEs),
		chares:  make(map[core.TaskId]*chare, c.graph.Size()),
		total:   int64(c.graph.Size()),
		results: make(map[core.TaskId][]core.Payload),
	}
	// The main chare creates the chare array(s): one chare per task,
	// placed round-robin over the PEs — either from a single array or,
	// with ArrayPerType, from one array per task type with independent
	// placement counters.
	perType := make(map[core.CallbackId]int)
	for i, id := range c.graph.TaskIds() {
		t, _ := c.graph.Task(id)
		owner := i % c.opt.PEs
		if c.opt.ArrayPerType {
			owner = perType[t.Callback] % c.opt.PEs
			perType[t.Callback]++
		}
		r.chares[id] = &chare{
			task:    t,
			owner:   owner,
			slots:   make([]core.Payload, len(t.Incoming)),
			filled:  make([]bool, len(t.Incoming)),
			missing: len(t.Incoming),
		}
	}

	// The dataflow execution is started asynchronously by the chares
	// containing the input data: send the external payloads as messages.
	for _, id := range core.SortedIds(initial) {
		owner := r.owner(id)
		for _, p := range initial[id] {
			r.fab.Send(fabric.Message{From: owner, To: owner, Src: core.ExternalInput, Dest: id, Payload: p})
		}
	}
	// Tasks with no inputs at all start immediately.
	for id, ch := range r.chares {
		if len(ch.task.Incoming) == 0 {
			r.fab.Send(fabric.Message{From: ch.owner, To: ch.owner, Src: core.ExternalInput, Dest: id, Payload: core.Payload{}})
		}
	}

	stopc := make(chan struct{})
	defer close(stopc)
	go func() {
		select {
		case <-ctx.Done():
			r.abort(core.Cancelled(ctx))
		case <-stopc:
		}
	}()

	var wg sync.WaitGroup
	for pe := 0; pe < c.opt.PEs; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			r.peLoop(pe)
		}(pe)
	}
	wg.Wait()

	c.lastStats = r.fab.Snapshot()
	c.lastMigrations = r.migrations.Load()
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if r.firstErr != nil {
		return nil, r.firstErr
	}
	return r.results, nil
}

func (r *charmRun) abort(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
	r.fab.Cancel()
}

// owner returns the current owner PE of a chare.
func (r *charmRun) owner(id core.TaskId) int {
	r.locMu.Lock()
	defer r.locMu.Unlock()
	ch, ok := r.chares[id]
	if !ok {
		return 0
	}
	return ch.owner
}

// peLoop is the scheduler loop of one processing element: it drains the
// PE's message queue, delivering RPCs to local chares and executing entry
// methods (task callbacks) inline, one at a time, as Charm++ does.
func (r *charmRun) peLoop(pe int) {
	for {
		m, ok := r.fab.Recv(pe)
		if !ok {
			return
		}
		ch, exists := r.chares[m.Dest]
		if !exists {
			r.abort(fmt.Errorf("charm: message for unknown chare %d", m.Dest))
			return
		}

		ch.mu.Lock()
		if ch.owner != pe {
			// The chare migrated while the message was in flight; the
			// location manager forwards it to the new owner.
			to := ch.owner
			ch.mu.Unlock()
			r.fab.Send(fabric.Message{From: pe, To: to, Src: m.Src, Dest: m.Dest, Payload: m.Payload})
			continue
		}
		if err := r.deliver(ch, m); err != nil {
			ch.mu.Unlock()
			r.abort(err)
			return
		}
		ready := ch.missing == 0 && !ch.started
		var inputs []core.Payload
		if ready {
			ch.started = true
			inputs = ch.slots
		}
		ch.mu.Unlock()

		if !ready {
			continue
		}
		if err := r.execute(pe, ch, inputs); err != nil {
			r.abort(err)
			return
		}
		done := r.executed.Add(1)
		if done == r.total {
			// Last entry method ran; quiescence detected, stop all PEs.
			for p := 0; p < r.c.opt.PEs; p++ {
				r.fab.Close(p)
			}
			return
		}
		if lb := r.c.opt.LBPeriod; lb > 0 && done%int64(lb) == 0 {
			r.rebalance()
		}
	}
}

// deliver fills the next open input slot matching the message's source.
func (r *charmRun) deliver(ch *chare, m fabric.Message) error {
	if len(ch.task.Incoming) == 0 {
		// Synthetic start message for an input-less task.
		return nil
	}
	for slot, producer := range ch.task.Incoming {
		if producer == m.Src && !ch.filled[slot] {
			// Detach a private copy of a shared fan-out wire form: the
			// chare owns its inputs and may mutate them.
			ch.slots[slot] = m.Payload.Own()
			ch.filled[slot] = true
			ch.missing--
			return nil
		}
	}
	return fmt.Errorf("charm: chare %d has no open input slot for producer %d", ch.task.Id, m.Src)
}

// execute runs the chare's entry method (the registered callback) and sends
// the outputs to the consuming chares as RPCs.
func (r *charmRun) execute(pe int, ch *chare, inputs []core.Payload) error {
	t := ch.task
	out, _, err := core.Step(r.c.reg, r.c.opt.Observer, t, inputs, core.ShardId(pe))
	if err != nil {
		return fmt.Errorf("charm: chare %d: %w", t.Id, err)
	}
	var batch []fabric.Message
	for slot, consumers := range t.Outgoing {
		if len(consumers) == 0 {
			if core.IsDead(out[slot]) {
				continue
			}
			r.resMu.Lock()
			r.results[t.Id] = append(r.results[t.Id], out[slot])
			r.resMu.Unlock()
			continue
		}
		p := out[slot]
		// Resolve every consumer's owner once; the last same-PE consumer
		// receives the payload pointer (the PUP framework's in-memory
		// optimization), every other RPC carries the wire form.
		owners := make([]int, len(consumers))
		for i, dest := range consumers {
			owners[i] = r.owner(dest)
		}
		inMemoryIdx := -1
		if last := len(consumers) - 1; owners[last] == pe {
			inMemoryIdx = last
		}
		wireConsumers := len(consumers)
		if inMemoryIdx >= 0 {
			wireConsumers--
		}
		var wire core.Payload
		switch {
		case wireConsumers == 0:
			// Single same-PE consumer: pure pointer pass.
		case wireConsumers == 1 && inMemoryIdx < 0:
			// Single RPC consumer: the chare relinquished the buffer,
			// hand it over without a copy.
			wire, err = p.WireForm()
		default:
			// Fan-out: the PUP framework serializes once; the immutable
			// wire form is shared by all RPC consumers and each detaches
			// a private copy at delivery.
			wire, err = core.SharedPayload(p, wireConsumers, inMemoryIdx >= 0)
		}
		if err != nil {
			return fmt.Errorf("charm: chare %d output slot %d: %w", t.Id, slot, err)
		}
		for i, dest := range consumers {
			mp := wire
			if i == inMemoryIdx {
				mp = p
			}
			batch = append(batch, fabric.Message{From: pe, To: owners[i], Src: t.Id, Dest: dest, Payload: mp})
		}
	}
	return r.fab.SendN(batch)
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
	for _, ch := range r.chares {
		ch.mu.Lock()
		if !ch.started {
			load[ch.owner]++
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
		from := ch.owner
		if load[from] > avg {
			to := minIndex(load)
			if load[to] < load[from]-1 {
				ch.owner = to
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
