// Package mpi implements the MPI runtime controller of the paper (§IV-A):
// static task placement via a task map, asynchronous point-to-point
// messages, and a per-rank thread pool that executes tasks greedily as soon
// as their inputs arrive.
//
// Each rank instantiates a separate controller loop that owns the local
// sub-graph's input readiness. The loop is a rank kernel and a driver. The
// kernel (rankKernel) makes every decision and does no I/O: it feeds the
// external inputs and counts the messages other ranks owe the rank — known
// statically, one per input slot fed from another rank — drops duplicate
// ledgered messages by sequence id and rejects messages for tasks placed
// elsewhere, fills input slots and takes a task the moment its last one
// arrives, stops starting tasks once a rank failed, replays a task whose
// outputs the lineage ledger holds instead of running it, and decides
// where each output goes: a sink, a same-rank consumer (the slot's last one
// by pointer, §IV-A) or a message for another rank. Its calls append newly
// ready tasks and outgoing messages to scratch the caller owns. The driver
// moves the data: runRank, the one production driver, receives messages,
// hands ready tasks to the executor and sends what the tasks route off the
// rank. Same-rank edges never touch the transport: the worker that
// finished the producer fills the consumers' slots under the kernel's
// mutex and then dispatches what became ready. Inter-rank messages (and
// fan-out copies) are serialized outside the mutex. A task assumes
// ownership of its inputs and relinquishes ownership of its outputs, so no
// data races occur on payloads. A test-only driver runs every rank of a
// graph on one goroutine under seeded schedules.
//
// Scheduling is graph-aware: Initialize compiles the graph once into a flat
// core.Plan (validation, dense task arrays, critical-path depths) and the
// task map into a placement table, and ready tasks enter per-rank priority
// deques ordered by downstream depth, so the most critical ready task runs
// first instead of the oldest. The deques are drained by a shared
// work-stealing executor (fabric.Pool): a global budget of workers —
// defaulting to GOMAXPROCS, not a fixed per-rank pool — is homed
// round-robin over the ranks, and an idle worker whose home rank has no
// ready work steals the most critical task of a loaded rank. The executor
// is sharded by rank: each deque has its own lock, a rank submits one
// runner with a plan index per task, and sinks collect per rank, so a
// worker on its home rank shares no lock with another rank's workers. No
// goroutine holds a kernel's mutex and a deque's lock at once. Under
// WithInline the driver runs ready tasks on the rank's own goroutine
// instead — the hand-tuned baseline. Scheduling order never changes
// outputs: tasks still run only when every input has arrived, and routing
// depends only on the graph and the task map.
//
// In this reproduction "ranks" are goroutine groups connected by the
// in-process fabric rather than OS processes on a Cray; the control
// structure — who serializes what, when tasks dispatch, what blocks —
// follows the paper's controller.
package mpi

import (
	"cmp"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/journal"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// Controller executes task graphs in MPI style. Create one, Initialize it
// with a graph and task map, register callbacks, then Run.
type Controller struct {
	core.Base
	opt   options
	place *placement // Initialize's task map compiled against the plan

	// onFail hears the first failure of every epoch before the failing
	// rank's transport is cancelled. An in-situ Group's shards run separate
	// epochs over one fabric; this is how the group records the cause ahead
	// of the echoes the cancellation sets off in the other shards.
	onFail func(error)

	// Stats from the last Run.
	lastStats fabric.Stats

	// Stats from the last journaled run (guarded separately: concurrent
	// RunRank calls on one controller may finish in any order).
	jmu    sync.Mutex
	jstats JournalStats
}

// JournalStats summarizes the last journaled run of a controller: how much
// completed work the journal carried into the run, how much of it was
// replayed instead of re-executed, and whether durability degraded.
type JournalStats struct {
	// Restored counts tasks inherited from the journal at open — completed
	// work a resumed run does not repeat.
	Restored int
	// Replayed counts tasks whose recorded outputs were re-emitted without
	// running the callback.
	Replayed int
	// Executed counts callback executions.
	Executed int
	// StoreErrors counts failed journal appends; the affected entries stay
	// pinned in memory, so only durability (not correctness) degraded.
	StoreErrors int
}

// JournalStats returns the journal counters of the last journaled run (or
// rank, for RunRank). Zero when the controller has no journal configured.
func (c *Controller) JournalStats() JournalStats {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return c.jstats
}

// ledgerTable holds the lineage ledgers of one run keyed by stable member
// identity (the rank, for fixed-membership runs) and owns the journal
// stores behind them. Ledgers open on first use: journal-backed under
// Journal/rank-<member> when the controller journals — so they survive
// epochs and process restarts — and in-memory otherwise.
type ledgerTable struct {
	c      *Controller
	leds   map[core.ShardId]*core.Ledger
	stores map[core.ShardId]*journal.LedgerStore
}

func (c *Controller) newLedgerTable() *ledgerTable {
	return &ledgerTable{c: c, leds: make(map[core.ShardId]*core.Ledger), stores: make(map[core.ShardId]*journal.LedgerStore)}
}

// open returns member's ledger, opening it if this is its first use.
func (lt *ledgerTable) open(member core.ShardId) (*core.Ledger, error) {
	if led, ok := lt.leds[member]; ok {
		return led, nil
	}
	if lt.c.opt.Journal == "" {
		lt.leds[member] = core.NewLedger()
		return lt.leds[member], nil
	}
	led, store, err := lt.c.openLedger(int(member))
	if err != nil {
		return nil, err
	}
	lt.leds[member], lt.stores[member] = led, store
	return led, nil
}

// sync flushes every journal store (group-commit windows included), making
// everything recorded so far durable — the fence's consistency point.
func (lt *ledgerTable) sync() {
	for _, s := range lt.stores {
		s.Sync()
	}
}

// counts sums the replay and execution counters of every ledger.
func (lt *ledgerTable) counts() (replayed, executed int) {
	for _, l := range lt.leds {
		replayed += l.Replays()
		executed += l.Executions()
	}
	return replayed, executed
}

// close publishes the journal counters (JournalStats) of a journaled run
// and closes every store. Callers defer it on every exit path; an
// in-memory table, or a second call, finds nothing to close.
func (lt *ledgerTable) close() {
	if len(lt.stores) == 0 {
		return
	}
	var js JournalStats
	for _, l := range lt.leds {
		js.Restored += l.Restored()
		js.Replayed += l.Replays()
		js.Executed += l.Executions()
		js.StoreErrors += l.StoreErrors()
	}
	lt.c.jmu.Lock()
	lt.c.jstats = js
	lt.c.jmu.Unlock()
	for _, s := range lt.stores {
		s.Close()
	}
	lt.stores = nil
}

// openLedger opens rank's slice of the controller's journal directory and
// returns a ledger journaling through it. The caller owns the store and
// must Close it after the run.
func (c *Controller) openLedger(rank int) (*core.Ledger, *journal.LedgerStore, error) {
	dir := filepath.Join(c.opt.Journal, fmt.Sprintf("rank-%d", rank))
	store, err := journal.OpenLedgerStore(dir, journal.Options{
		Sync:           c.opt.JournalSync,
		CommitInterval: c.opt.JournalCommitInterval,
		CommitRecords:  c.opt.JournalCommitRecords,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: rank %d journal: %w", rank, err)
	}
	return core.NewLedgerBacked(store, 0), store, nil
}

// New returns an MPI controller. Configuration is functional-options style,
// applied left to right:
//
//	mpi.New(mpi.WithWorkers(4), mpi.WithRetry(policy))
func New(opts ...Option) *Controller {
	return newFromOptions(resolve(opts))
}

// newFromOptions builds a controller from a resolved configuration — the
// internal seam the service uses to stamp per-run controllers from its
// option template.
func newFromOptions(opt options) *Controller {
	return &Controller{opt: opt, onFail: func(error) {}}
}

// Initialize implements core.Controller. The task map is required: it
// determines which tasks are assigned to which rank. Not all ranks must be
// assigned tasks, nor is there a limit per rank — running a graph on fewer
// ranks trades distributed for shared-memory parallelism.
func (c *Controller) Initialize(g core.TaskGraph, m core.TaskMap) error {
	if err := c.opt.validate(); err != nil {
		return err
	}
	p, err := core.Compile(g)
	if err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("mpi: the MPI controller requires a task map")
	}
	pl, err := place(p, m)
	if err != nil {
		return err
	}
	c.place = pl
	return c.Bind(p)
}

// placement is a task map compiled against the plan, the form an epoch
// executes: shardOf[i] is the logical rank owning the plan's i-th task and
// local[r] lists rank r's task indices, ascending. An elastic epoch rebuilds
// only this table, never the plan.
type placement struct {
	shardOf []int32
	local   [][]int32
}

// newPlacement derives the per-rank index lists from shardOf.
func newPlacement(ranks int, shardOf []int32) *placement {
	pl := &placement{shardOf: shardOf, local: make([][]int32, ranks)}
	for i, r := range shardOf {
		pl.local[r] = append(pl.local[r], int32(i))
	}
	return pl
}

// place compiles — and thereby validates — a task map against the plan.
func place(p *core.Plan, m core.TaskMap) (*placement, error) {
	shardOf, err := p.Place(m)
	if err != nil {
		return nil, err
	}
	return newPlacement(m.ShardCount(), shardOf), nil
}

// Stats returns the inter-rank traffic of the last Run.
func (c *Controller) Stats() fabric.Stats { return c.lastStats }

// Run implements core.Controller.
func (c *Controller) Run(initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.RunContext(context.Background(), initial)
}

// RunContext implements core.Controller: Run with cancellation and deadline
// propagation. It is one epoch over every rank on a fresh in-process fabric
// and executor. When the context ends, the fabric is cancelled so every
// rank loop and blocked receive unwinds promptly, and the call returns an
// error wrapping core.ErrCancelled.
func (c *Controller) RunContext(ctx context.Context, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.run(ctx, allRanks, nil, nil, nil, nil, initial)
}

// RunRank executes exactly one rank of the dataflow over the provided
// transport — the multi-process entry point. Where Run spawns every rank as
// a goroutine over an in-memory fabric sharing one work-stealing executor,
// RunRank drives a single rank whose peers live behind the transport (other
// OS processes over the TCP fabric, or other in-process RunRank calls
// sharing a transport per rank); its executor serves only the local rank,
// so the worker budget applies per process.
//
// initial must contain exactly the external inputs of this rank's tasks.
// RunRank returns the sink outputs produced by local tasks. On any local
// failure — including one found before the first task runs — the transport
// is cancelled so every peer unwinds; a peer or transport failure surfaces
// as the transport's typed error.
//
// RunRank is safe to call concurrently for different ranks on one shared
// controller (it does not update Stats — consult the transport's Snapshot).
func (c *Controller) RunRank(rank int, tr fabric.Transport, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.run(context.Background(), rank, tr, nil, nil, nil, initial)
}

// RunMember executes one logical rank of an elastic epoch whose peers live
// in other OS processes: the multi-process counterpart of an epoch of
// RunElastic. members is the epoch's member table (logical rank l is
// members[l]) and rank this process's logical rank on tr. The epoch is
// placed as supervise places it: Plan.Rebalance of the Initialize map over
// members. Before it runs, led adopts the journaled lineage of the rank's
// tasks from every retired member — safe once that member confirmed its
// drain, because a journal has a single writer. initial is the dataflow's
// full set of external inputs; the rank takes its share. Tasks recorded in
// led replay instead of re-executing; a nil led runs without lineage. A
// finished ctx cancels the transport, unwinding this rank (and, over the
// wire, its peers) with an error wrapping core.ErrCancelled.
func (c *Controller) RunMember(ctx context.Context, rank int, members, retired []core.ShardId, tr fabric.Transport, led *core.Ledger, initial map[core.TaskId][]core.Payload) (sinks map[core.TaskId][]core.Payload, err error) {
	defer func() {
		if err != nil {
			tr.Cancel()
		}
	}()
	if c.place == nil {
		return nil, core.ErrNotInitialized
	}
	dest, err := c.Plan().Rebalance(c.place.shardOf, len(c.place.local), members)
	if err != nil {
		return nil, err
	}
	// The rank's share of initial; ids outside the plan pass on for the
	// pre-flight to report.
	local := make(map[core.TaskId][]core.Payload)
	for id, ps := range initial {
		if i, ok := c.Plan().Index(id); !ok || dest[i] == int32(rank) {
			local[id] = ps
		}
	}
	if led != nil && c.opt.Journal != "" {
		for _, donor := range retired {
			dled, store, err := c.openLedger(int(donor))
			if err != nil {
				return nil, err
			}
			for i, r := range dest {
				if r == int32(rank) {
					led.Adopt(dled, c.Plan().TaskIds()[i])
				}
			}
			store.Close()
		}
	}
	return c.run(ctx, rank, tr, nil, newPlacement(len(members), dest), led, local)
}

// allRanks is run's rank argument for driving every rank of the task map.
const allRanks = -1

// preflight is core.Base.Preflight for the whole graph (rank == allRanks)
// or for rank's local tasks under pl. pl is nil only before Initialize,
// which Preflight reports.
func (c *Controller) preflight(pl *placement, rank int, initial map[core.TaskId][]core.Payload) error {
	if rank == allRanks || pl == nil {
		return c.Preflight(initial, nil, 0)
	}
	if n := len(pl.local); rank < 0 || rank >= n {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, n)
	}
	return c.Preflight(initial, pl.shardOf, rank)
}

// run is the one gate between the fixed-membership entry points and epoch:
// it validates, supplies whatever the caller did not bring, and runs one
// epoch. rank selects the ranks driven here (allRanks, or one logical rank
// whose peers live behind tr). Everything passed as nil is run-scoped and
// owned by run: a nil tr is a fresh in-process fabric (whose traffic becomes
// Stats), a nil pool a fresh executor, a nil pl the Initialize placement, and
// a nil led the rank's journal-backed ledger when the controller journals
// (a fresh directory journals progress, an existing one resumes from it) —
// opened here, and closed with the journal counters published on every
// exit path.
//
// Any failure once tr is in hand cancels it: a peer blocked in a receive
// on a shared transport must not outwait a run that never started.
func (c *Controller) run(ctx context.Context, rank int, tr fabric.Transport, pool *fabric.Pool, pl *placement, led *core.Ledger, initial map[core.TaskId][]core.Payload) (sinks map[core.TaskId][]core.Payload, err error) {
	defer func() {
		if err != nil && tr != nil {
			tr.Cancel()
		}
	}()
	if pl == nil {
		pl = c.place
	}
	if err = c.preflight(pl, rank, initial); err != nil {
		return nil, err
	}
	n := len(pl.local)
	if tr == nil {
		if c.opt.Transport != nil {
			tr = c.opt.Transport(n)
		} else {
			tr = fabric.New(n)
		}
		defer func() { c.lastStats = tr.Snapshot() }()
	}
	if got := tr.Ranks(); got != n {
		return nil, fmt.Errorf("mpi: transport has %d ranks, task map shards over %d", got, n)
	}

	lo, hi := rank, rank+1
	if rank == allRanks {
		lo, hi = 0, n
	}
	trs := make([]fabric.Transport, n)
	for r := lo; r < hi; r++ {
		trs[r] = tr
	}
	var leds []*core.Ledger
	switch {
	case led != nil:
		leds = make([]*core.Ledger, n)
		leds[rank] = led
	case c.opt.Journal != "":
		table := c.newLedgerTable()
		defer table.close()
		leds = make([]*core.Ledger, n)
		for r := lo; r < hi; r++ {
			if leds[r], err = table.open(core.ShardId(r)); err != nil {
				return nil, err
			}
		}
	}
	if pool == nil {
		pool = c.opt.newPool(c.Plan().Size(), n, rank)
		defer pool.Close()
	}

	sinks, _, err = c.epoch(ctx, 0, pl, trs, pool, leds, initial)
	if err != nil {
		return nil, err
	}
	return sinks, nil
}

// runEnv is the state one epoch threads through its rank loops: the
// attempt (merged sinks and the epoch's first failure), its number (stamped
// on task events; 0 outside a supervised run), the epoch's
// placement (a recovery epoch's differs from Initialize's), the transport of
// every rank driven here (nil for ranks living elsewhere), the executor
// (nil inline), the per-rank failures and — for ledgered runs — the
// per-rank lineage ledgers.
type runEnv struct {
	core.Attempt
	num     int
	place   *placement
	trs     []fabric.Transport
	pool    *fabric.Pool
	leds    []*core.Ledger // nil outside ledgered runs
	ranks   []rankState    // by rank; set up by the rank's own loop
	readyAt []time.Time    // dispatch instants by plan index; only for an Observer

	stopped atomic.Bool // a rank failed: no task starts any more
	mu      sync.Mutex
	errs    []error // first failure per rank: classifyDead's evidence
}

// rankState is one rank's kernel, shared by the rank loop and by every
// worker finishing one of the rank's tasks. run is the rank's one runner
// on the pool (an item is run plus a plan index, with no closure per task)
// and pend counts its items, as the pool outlives the rank loop. The pad
// keeps neighbouring ranks off each other's cache lines.
type rankState struct {
	k    rankKernel
	run  func(int)
	pend sync.WaitGroup
	_    [64]byte
}

// fail records a failure of rank and cancels the rank's transport — that
// rank's alone, a supervised run reads who failed how — so the rank's loop
// and, over a shared fabric or the wire, its peers unwind.
func (e *runEnv) fail(rank int, err error) {
	e.mu.Lock()
	if e.errs[rank] == nil {
		e.errs[rank] = err
	}
	e.mu.Unlock()
	e.stopped.Store(true)
	e.Fail(err)
	e.trs[rank].Cancel()
}

// epoch is the execution engine: attempt num of the dataflow placed by pl,
// driving every logical rank r with a transport in trs[r] (ranks with a nil
// entry live behind the others' transports), executing on pool (nil:
// inline, on the rank loops), recording into and replaying from leds[r]
// when leds is non-nil. Every way of running the controller is this
// function under a different supply of arguments; neither transports, pool
// nor ledgers are owned here — they may outlive the call.
//
// epoch alone starts the rank loops, captures failures (per rank here, the
// first overall — the cause, where later ones are its echoes — in the
// attempt, which tells onFail), cancels a failing rank's transport, watches
// ctx (a finished context fails every driven rank with core.ErrCancelled),
// and hands the kernels their ledgers, which arms sequence stamping and
// receiver dedup. Once the attempt's Result has joined the watcher, a
// cancellation racing completion can no longer reach a transport the
// caller is about to release.
func (c *Controller) epoch(ctx context.Context, num int, pl *placement, trs []fabric.Transport, pool *fabric.Pool, leds []*core.Ledger, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, []error, error) {
	env := &runEnv{num: num, place: pl, trs: trs, pool: pool, leds: leds, ranks: make([]rankState, len(trs)), errs: make([]error, len(trs))}
	// fail cancels per rank, so all that is left for the attempt's Cancel is
	// to pass the cause on.
	env.Cancel = func() { c.onFail(env.Err()) }
	if c.opt.Observer != nil && pool != nil {
		env.readyAt = make([]time.Time, c.Plan().Size())
	}
	env.Watch(ctx, func(err error) {
		for r, tr := range trs {
			if tr != nil {
				env.fail(r, err)
			}
		}
	})
	var ranks sync.WaitGroup
	for r, tr := range trs {
		if tr == nil {
			continue
		}
		ranks.Add(1)
		go func(rank int) {
			defer ranks.Done()
			c.runRank(rank, env, initial)
		}(r)
	}
	ranks.Wait()
	// A task's sinks all come from its home rank, in slot order.
	for r := range env.ranks {
		for _, s := range env.ranks[r].k.sinks {
			env.Sink(s.id, s.pay)
		}
	}
	sinks, err := env.Result()
	return sinks, env.errs, err
}

// Fingerprint returns the canonical fingerprint of the controller's graph
// and registered callbacks — what a rank presents during the wire
// rendezvous handshake so mismatched binaries are rejected before any
// message flows. It is zero before Initialize.
func (c *Controller) Fingerprint() core.Fingerprint {
	if c.Plan() == nil {
		return core.Fingerprint{}
	}
	return core.GraphFingerprint(c.Plan(), c.Registry().Ids())
}

// WireOptions returns the wire transport template this controller implies:
// its graph fingerprint. Callers building a mesh fill in the rest
// (Rank/Ranks/Addr, tier, heartbeat tuning); wire.Mesh does so itself.
func (c *Controller) WireOptions() wire.Options {
	return wire.Options{Fingerprint: c.Fingerprint()}
}

// scratchPool recycles the kernel scratch of the workers, which are not
// rank-scoped, and of the rank loops, whose ready list holds every task
// ready from the start — a large allocation per run on a big graph.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// runRank is the rank loop, the one production driver of the rank's
// kernel: it starts the kernel, then receives the messages other ranks
// send here until none is due, hands every task the kernel makes ready to
// the executor and sends what the tasks route off the rank. The executor
// is the one choice it makes: the rank's priority deque on the shared
// work-stealing pool — the most critical ready task first, the one with
// the longest downstream chain (§IV-A schedules greedily; the priority
// decides among simultaneously ready tasks and cannot affect outputs) —
// or, with no pool (WithInline), this goroutine. Receiving in batches
// costs one mailbox lock and one rank lock per burst, and dispatch never
// blocks, so the loop keeps draining while every worker is busy. A
// failure fails the rank. runRank returns once its tasks finished; after
// a failure of the epoch it releases what the rank still holds.
func (c *Controller) runRank(rank int, env *runEnv, initial map[core.TaskId][]core.Payload) {
	if len(env.place.local[rank]) == 0 {
		return // rank with no assigned tasks
	}
	p, rs, tr := c.Plan(), &env.ranks[rank], env.trs[rank]

	// dispatch hands the ready tasks to the pool. Without one — the
	// controller runs inline — they stay for this goroutine to run.
	dispatch := func(sc *scratch) {
		if env.pool == nil {
			return
		}
		for _, i := range sc.ready {
			if env.readyAt != nil {
				env.readyAt[i] = time.Now()
			}
			rs.pend.Add(1)
			env.pool.Submit(rank, int64(p.Depth(p.TaskIds()[i])), rs.run, i)
		}
		sc.ready = sc.ready[:0]
	}
	// step runs task i and routes its outputs. A failure fails the rank,
	// which cancels its transport so every rank unwinds, before the tasks
	// the call made ready are dispatched: the stop rule drops them. A send
	// refused by a transport that has already failed is an echo of that
	// failure (a lost peer closes the mailboxes); the typed cause is
	// reported.
	step := func(i int, sc *scratch) {
		err := rs.k.execute(i, sc)
		if err != nil {
			env.fail(rank, err)
		}
		dispatch(sc)
		if err == nil && len(sc.msgs) > 0 {
			if err = tr.SendN(sc.msgs); err != nil {
				env.fail(rank, cmp.Or(tr.Err(), err))
			}
		}
		clear(sc.msgs)
		sc.msgs = sc.msgs[:0]
	}
	rs.run = func(i int) {
		defer rs.pend.Done()
		sc := scratchPool.Get().(*scratch)
		step(i, sc)
		scratchPool.Put(sc)
	}

	sc := scratchPool.Get().(*scratch)
	batch := make([]fabric.Message, 64)
	err := rs.k.start(c, env, rank, initial, sc)
	for err == nil {
		dispatch(sc)
		for len(sc.ready) > 0 { // inline: this goroutine runs them
			i := sc.ready[len(sc.ready)-1]
			sc.ready = sc.ready[:len(sc.ready)-1]
			step(i, sc)
		}
		if rs.k.done() {
			break
		}
		n, ok := tr.RecvBatch(rank, batch)
		if !ok {
			// Delivery became impossible. A transport-level failure (lost
			// peer, broken wire) surfaces as the typed transport error; a
			// controller-initiated abort leaves Err() nil, and whoever
			// aborted already recorded the cause ahead of this echo.
			err = cmp.Or(tr.Err(), fmt.Errorf("mpi: rank %d aborted with %d message(s) pending: %w", rank, rs.k.remote, fabric.ErrClosed))
			break
		}
		err = rs.k.receive(batch[:n], sc)
	}
	// A failed start or receive leaves the tasks it made ready undispatched;
	// they never start. The scratch goes back empty: any rank's worker or
	// loop may get it next.
	sc.ready = sc.ready[:0]
	scratchPool.Put(sc)
	if err != nil {
		env.fail(rank, err)
	}
	rs.pend.Wait()
	if env.stopped.Load() {
		rs.k.abort()
	}
}

// recordOutputs retains a completed task's serialized outputs in the
// lineage ledger. A slot holding the same object as an earlier slot (a
// non-root merge-tree join emits its tree twice) shares that slot's buffer,
// serialized once. Best effort: if any slot cannot serialize (an object
// payload without Serializable) the task stays unrecorded and simply
// re-executes in a recovery epoch — always correct under the idempotence
// contract, just not accelerated.
func recordOutputs(led *core.Ledger, t core.Task, out []core.Payload) {
	wires := make([][]byte, len(out))
next:
	for i := range out {
		for j := range out[:i] {
			if sameObject(out[i], out[j]) {
				wires[i] = wires[j]
				continue next
			}
		}
		cp, err := out[i].CloneForWire()
		if err != nil {
			return
		}
		wires[i] = cp.Data
	}
	led.Record(t.Id, wires)
}

// sameObject reports whether two object-only payloads hold the same
// pointer. Only pointers are compared: == on other dynamic types may panic.
func sameObject(a, b core.Payload) bool {
	if a.Data != nil || b.Data != nil || a.Object == nil {
		return false
	}
	ta := reflect.TypeOf(a.Object)
	return ta.Kind() == reflect.Pointer && ta == reflect.TypeOf(b.Object) && a.Object == b.Object
}

var _ core.Controller = (*Controller)(nil)
