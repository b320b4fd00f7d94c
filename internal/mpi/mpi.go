// Package mpi implements the MPI runtime controller of the paper (§IV-A):
// static task placement via a task map, asynchronous point-to-point
// messages, and a per-rank thread pool that executes tasks greedily as soon
// as their inputs arrive.
//
// Each rank instantiates a separate controller loop that owns the local
// sub-graph's input readiness, feeds the external inputs and receives the
// messages other ranks send it — known statically, one per input slot fed
// from another rank. Same-rank edges never touch the transport or the loop:
// the worker that finished the producer delivers the payload into the
// rank's readiness state under the rank's mutex (the pointer itself for a
// slot's last local consumer, §IV-A) and dispatches any task that became
// ready. Inter-rank messages (and fan-out copies) are serialized. A task
// assumes ownership of its inputs and relinquishes ownership of its
// outputs, so no data races occur on payloads.
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
// worker on its home rank shares no lock with another rank's workers. Lock
// order is the rank mutex, then the rank's home deque. Scheduling order
// never changes outputs: tasks still run only when every input has
// arrived, and routing depends only on the graph and the task map.
//
// In this reproduction "ranks" are goroutine groups connected by the
// in-process fabric rather than OS processes on a Cray; the control
// structure — who serializes what, when tasks dispatch, what blocks —
// follows the paper's controller.
package mpi

import (
	"context"
	"fmt"
	"path/filepath"
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

// RunMemberContext executes one logical rank of an elastic epoch whose
// peers live in other OS processes: the multi-process counterpart of the
// per-rank loop inside RunElastic. rank is the epoch's logical rank on the
// transport, tmap the epoch task map (core.RebalanceShards over the
// coordinator's member table), and led the member's lineage ledger — tasks
// already recorded there replay instead of re-executing, exactly as in a
// recovery epoch. A nil ledger runs the epoch without lineage. A finished
// ctx cancels the transport, unwinding this rank (and, over the wire, its
// peers) with an error wrapping core.ErrCancelled.
func (c *Controller) RunMemberContext(ctx context.Context, rank int, tr fabric.Transport, initial map[core.TaskId][]core.Payload, tmap core.TaskMap, led *core.Ledger) (map[core.TaskId][]core.Payload, error) {
	return c.run(ctx, rank, tr, nil, tmap, led, initial)
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
// Stats), a nil pool a fresh executor unless the controller runs inline, a
// nil tmap the Initialize map, and a nil led the rank's journal-backed
// ledger when the controller journals (a fresh directory journals progress,
// an existing one resumes from it) — opened here, and closed with the
// journal counters published on every exit path.
//
// Any failure once tr is in hand cancels it: a peer blocked in a receive
// on a shared transport must not outwait a run that never started.
func (c *Controller) run(ctx context.Context, rank int, tr fabric.Transport, pool *fabric.Pool, tmap core.TaskMap, led *core.Ledger, initial map[core.TaskId][]core.Payload) (sinks map[core.TaskId][]core.Payload, err error) {
	defer func() {
		if err != nil && tr != nil {
			tr.Cancel()
		}
	}()
	pl := c.place
	if tmap != nil && c.Plan() != nil {
		if pl, err = place(c.Plan(), tmap); err != nil {
			return nil, err
		}
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
	if pool == nil && !c.opt.Inline {
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
// every rank driven here (nil for ranks living elsewhere), the executor,
// the per-rank failures and — for ledgered runs — the per-rank lineage
// ledgers plus the per-home-rank egress sequence counters that give
// messages a dedup identity.
type runEnv struct {
	core.Attempt
	num     int
	place   *placement
	trs     []fabric.Transport
	pool    *fabric.Pool    // nil = inline execution
	leds    []*core.Ledger  // nil outside ledgered runs
	seq     []atomic.Uint64 // nil outside ledgered runs
	ranks   []rankState     // by rank; set up by the rank's own loop
	readyAt []time.Time     // dispatch instants by plan index; only for an Observer

	stopped atomic.Bool // a rank failed: no task starts any more
	mu      sync.Mutex
	errs    []error // first failure per rank: classifyDead's evidence
}

// rankState is one rank's input readiness and sink outputs, shared by the
// rank loop and by every worker finishing one of the rank's tasks: whoever
// delivers a task's last input dispatches it. mu guards st and sinks; lock
// order is mu, then the pool's home deque of the rank. The pad keeps
// neighbouring ranks off each other's cache lines.
type rankState struct {
	mu       sync.Mutex
	st       *core.DataflowState
	dispatch func(i int) // Take has retired the task; its inputs stay in st
	sinks    []sinkOut   // handed to the attempt once every rank returned
	_        [64]byte
}

// sinkOut is one payload a task of the rank put on a sink slot.
type sinkOut struct {
	id  core.TaskId
	pay core.Payload
}

// deliver fills one input slot of the rank's task i and dispatches the task
// once it is ready. rs.mu must be held.
func (rs *rankState) deliver(i int, from core.TaskId, pay core.Payload) error {
	if err := rs.st.Deliver(i, from, pay); err != nil {
		return err
	}
	if _, ok := rs.st.Take(i); ok {
		rs.dispatch(i)
	}
	return nil
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

// ledger returns rank's lineage ledger, or nil when the run keeps none.
func (e *runEnv) ledger(rank int) *core.Ledger {
	if e.leds == nil {
		return nil
	}
	return e.leds[rank]
}

// epoch is the execution engine: attempt num of the dataflow placed by pl,
// driving every logical rank r with a transport in trs[r] (ranks with a nil
// entry live behind the others' transports), executing on pool (nil =
// inline in the rank loops), recording into and replaying from leds[r]
// when leds is non-nil. Every way of running the controller is this
// function under a different supply of arguments; neither transports, pool
// nor ledgers are owned here — they may outlive the call.
//
// epoch alone starts the rank loops, captures failures (per rank here, the
// first overall — the cause, where later ones are its echoes — in the
// attempt, which tells onFail), cancels a failing rank's transport, watches
// ctx (a finished context fails every driven rank with core.ErrCancelled),
// and arms sequence stamping and receiver dedup for ledgered runs. Once the
// attempt's Result has joined the watcher, a cancellation racing completion
// can no longer reach a transport the caller is about to release.
func (c *Controller) epoch(ctx context.Context, num int, pl *placement, trs []fabric.Transport, pool *fabric.Pool, leds []*core.Ledger, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, []error, error) {
	env := &runEnv{num: num, place: pl, trs: trs, pool: pool, leds: leds, ranks: make([]rankState, len(trs)), errs: make([]error, len(trs))}
	// fail cancels per rank, so all that is left for the attempt's Cancel is
	// to pass the cause on.
	env.Cancel = func() { c.onFail(env.Err()) }
	if leds != nil {
		env.seq = make([]atomic.Uint64, len(trs))
	}
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
			if err := c.runRank(rank, env, initial); err != nil {
				env.fail(rank, err)
			}
		}(r)
	}
	ranks.Wait()
	// A task's sinks all come from its home rank, in slot order.
	for r := range env.ranks {
		for _, s := range env.ranks[r].sinks {
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

// scratchPool recycles the per-execution message scratch slices the workers
// batch a task's outputs into; with the shared executor workers are no
// longer rank-scoped, so scratch lives in a pool instead of a worker local.
var scratchPool = sync.Pool{New: func() any { return new([]fabric.Message) }}

// runRank is the per-rank controller loop: it feeds the rank's external
// inputs, dispatches the tasks ready from the start and then receives the
// messages other ranks send here — known statically, one per input slot fed
// from another rank, live or dead. Same-rank edges never reach the loop:
// route delivers them, and whoever delivers a task's last input dispatches
// it into the rank's priority deque on the shared executor (pool is nil
// only in Inline mode, where this loop runs the ready tasks itself). Tasks
// are dense plan indices throughout: readiness, placement and priority are
// array reads.
func (c *Controller) runRank(rank int, env *runEnv, initial map[core.TaskId][]core.Payload) error {
	p, pl := c.Plan(), env.place
	local := pl.local[rank]
	if len(local) == 0 {
		return nil // rank with no assigned tasks
	}
	ids := p.TaskIds()
	rs := &env.ranks[rank]
	rs.st = core.NewDataflowState(p, local)
	led := env.ledger(rank)
	tr := env.trs[rank]

	// execute runs one ready task on whichever worker picked it up and
	// routes its outputs. A failing task fails the rank, which cancels its
	// transport so every rank unwinds; once a rank failed, no task starts
	// and its inputs are released. In a ledgered run, a task whose
	// outputs are already in the lineage ledger is replayed — its recorded
	// wire forms are re-routed downstream without re-running the callback —
	// so a recovery epoch only pays for the undelivered frontier. A task
	// cancelled by a dead input journals like a normal execution, so a
	// resumed run replays the cancellation instead of re-deciding it. The
	// Observer hears when the task entered the deque (env.readyAt). The
	// task's inputs are its window of st, which Take retired before
	// dispatch, so reading them needs no lock.
	execute := func(i int, scratch []fabric.Message) []fabric.Message {
		in := rs.st.Inputs(i)
		if env.stopped.Load() {
			for k := range in {
				in[k].Release()
			}
			clear(in)
			return scratch
		}
		t := p.TaskAt(i)
		var out []core.Payload
		var attempt uint32
		var rec [][]byte
		replay := false
		if led != nil {
			rec, replay = led.Outputs(t.Id)
		}
		if replay {
			// The inputs were assembled only to satisfy readiness; the
			// replayed outputs come from the ledger.
			for k := range in {
				in[k].Release()
			}
			out = make([]core.Payload, len(rec))
			for s, b := range rec {
				cp := make([]byte, len(b))
				copy(cp, b)
				out[s] = core.Buffer(cp)
			}
			led.CountReplay()
			if obs := c.opt.Observer; obs != nil {
				now := time.Now()
				obs.Observe(core.Event{Kind: core.TaskReplayed, Task: t.Id, Callback: t.Callback, Shard: core.ShardId(rank), Start: now, End: now, Epoch: env.num})
			}
		} else {
			if led != nil {
				attempt = uint32(led.BeginAttempt(t.Id))
			}
			var ready time.Time
			if env.readyAt != nil {
				ready = env.readyAt[i]
			}
			var err error
			out, _, err = core.Step(c.Registry(), c.opt.Observer, t, in, core.Event{Shard: core.ShardId(rank), Ready: ready, Attempt: int(attempt), Epoch: env.num})
			if err != nil {
				env.fail(rank, err)
				return scratch
			}
			if led != nil {
				recordOutputs(led, t, out)
			}
		}
		scratch, err := c.route(rank, env, i, t, attempt, out, scratch)
		// in is a window of st's arena, which outlives the task; it is
		// cleared only now because a relay callback may return it as out.
		clear(in)
		if err != nil {
			env.fail(rank, err)
		}
		return scratch
	}

	// pend tracks this rank's dispatched-but-unfinished tasks; runRank only
	// returns once its routes completed. The executor itself is shared and
	// outlives the rank loop.
	var pend sync.WaitGroup
	defer pend.Wait()

	// run is the rank's one runner on the executor: an item is run plus a
	// plan index, with no closure per task.
	run := func(i int) {
		defer pend.Done()
		sp := scratchPool.Get().(*[]fabric.Message)
		*sp = execute(i, *sp)
		scratchPool.Put(sp)
	}
	// ready holds Inline mode's ready tasks; only this loop touches it, as
	// inline tasks route on this goroutine.
	var ready []int
	rs.dispatch = func(i int) {
		if c.opt.Inline {
			ready = append(ready, i)
			return
		}
		// Priority dispatch: the deque hands workers the most critical
		// ready task — the one with the longest downstream chain — not the
		// oldest (§IV-A schedules greedily; the priority decides among
		// simultaneously ready tasks and cannot affect outputs).
		if env.readyAt != nil {
			env.readyAt[i] = time.Now()
		}
		pend.Add(1)
		env.pool.Submit(rank, int64(p.Depth(ids[i])), run, i)
	}

	// Feed external inputs for local leaf tasks and count the input slots
	// other ranks feed — nothing runs yet, so without the lock — then
	// dispatch tasks that are immediately ready.
	remote := 0
	for _, i := range local {
		for _, src := range p.TaskAt(int(i)).Incoming {
			if j, ok := p.Index(src); ok && pl.shardOf[j] != int32(rank) {
				remote++
			}
		}
		if p.Externals(int(i)) == 0 {
			continue
		}
		for _, pay := range initial[ids[i]] {
			if err := rs.st.Deliver(int(i), core.ExternalInput, pay); err != nil {
				return err
			}
		}
	}
	rs.mu.Lock()
	for _, i := range local {
		if _, ok := rs.st.Take(int(i)); ok {
			rs.dispatch(int(i))
		}
	}
	rs.mu.Unlock()

	// Receive loop, until the last expected message arrived. Messages are
	// drained in batches so a burst costs one mailbox lock and one rank
	// lock, not one per message. Dispatch never blocks, so the loop keeps
	// draining and accounting inputs while every worker is busy. In Inline
	// mode the loop first runs every ready task, and the tasks those make
	// ready, without recursion.
	//
	// Fault-tolerant runs additionally dedup by message sequence id: a
	// redelivered duplicate (injected or transport-retried) would otherwise
	// fill a second input slot and corrupt readiness accounting.
	batch := make([]fabric.Message, 64)
	var seen []map[uint64]struct{}
	if led != nil {
		seen = make([]map[uint64]struct{}, len(env.trs))
	}
	var inlineScratch []fabric.Message
	for {
		for len(ready) > 0 {
			i := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			inlineScratch = execute(i, inlineScratch)
		}
		if remote == 0 {
			return nil
		}
		n, ok := tr.RecvBatch(rank, batch)
		if !ok {
			// Delivery became impossible. A transport-level failure (lost
			// peer, broken wire) surfaces as the typed transport error; a
			// controller-initiated abort leaves Err() nil, and whoever
			// aborted already recorded the cause ahead of this echo.
			if err := tr.Err(); err != nil {
				return err
			}
			return fmt.Errorf("mpi: rank %d aborted with %d message(s) pending: %w", rank, remote, fabric.ErrClosed)
		}
		rs.mu.Lock()
		for k := 0; k < n; k++ {
			m := batch[k]
			batch[k] = fabric.Message{} // drop the payload reference
			if seen != nil && m.Seq != 0 {
				s := seen[m.From]
				if s == nil {
					s = make(map[uint64]struct{})
					seen[m.From] = s
				}
				if _, dup := s[m.Seq]; dup {
					m.Payload.Release()
					continue
				}
				s[m.Seq] = struct{}{}
			}
			i, ok := p.Index(m.Dest)
			if !ok || pl.shardOf[i] != int32(rank) {
				rs.mu.Unlock()
				return fmt.Errorf("mpi: rank %d received message for non-local task %d", rank, m.Dest)
			}
			remote--
			if err := rs.deliver(i, m.Src, m.Payload); err != nil {
				rs.mu.Unlock()
				return err
			}
		}
		rs.mu.Unlock()
	}
}

// recordOutputs retains a completed task's serialized outputs in the
// lineage ledger. Best effort: if any slot cannot serialize (an object
// payload without Serializable) the task stays unrecorded and simply
// re-executes in a recovery epoch — always correct under the idempotence
// contract, just not accelerated.
func recordOutputs(led *core.Ledger, t core.Task, out []core.Payload) {
	wires := make([][]byte, len(out))
	for i := range out {
		cp, err := out[i].CloneForWire()
		if err != nil {
			return
		}
		wires[i] = cp.Data
	}
	led.Record(t.Id, wires)
}

// route delivers a finished task's outputs: sink slots into the attempt,
// consumers on this rank straight into its readiness state (the last
// consumer of a slot by pointer, §IV-A), everything else as the wire form
// core.FanOut decides on. The off-rank messages are collected into scratch
// and enqueued with one batched send per destination run, so a whole
// fan-out costs one serialization and O(destinations) lock acquisitions.
// The (possibly grown) scratch slice is returned for reuse by the calling
// worker.
//
// rank is the task's home rank (where its inputs were assembled), not the
// rank of the stealing worker: the pointer pass and the message From field
// must follow placement, or outputs would change with the schedule.
//
// In fault-tolerant runs every off-rank message is stamped with a
// per-home-rank sequence id (the receiver's dedup identity) and the
// producing task's attempt number.
func (c *Controller) route(rank int, env *runEnv, i int, t core.Task, attempt uint32, out []core.Payload, scratch []fabric.Message) ([]fabric.Message, error) {
	batch := scratch[:0]
	shardOf := env.place.shardOf
	rs := &env.ranks[rank]
	dest := c.Plan().Consumers(i) // t.Outgoing flattened, as plan indices
	for slot, consumers := range t.Outgoing {
		to := dest[:len(consumers)]
		dest = dest[len(consumers):]
		if len(consumers) == 0 {
			rs.mu.Lock()
			rs.sinks = append(rs.sinks, sinkOut{t.Id, out[slot]})
			rs.mu.Unlock()
			continue
		}
		last := len(consumers) - 1
		lastLocal := !c.opt.AlwaysSerialize && int(shardOf[to[last]]) == rank
		wire, err := core.FanOut(out[slot], len(consumers), lastLocal)
		if err != nil {
			return abandon(batch, out[slot:]), fmt.Errorf("mpi: task %d output slot %d: %w", t.Id, slot, err)
		}
		for k, dest := range consumers {
			m := fabric.Message{From: rank, To: int(shardOf[to[k]]), Src: t.Id, Dest: dest, Payload: wire, Attempt: attempt}
			if lastLocal && k == last {
				m.Payload = out[slot]
			}
			if m.To == rank {
				rs.mu.Lock()
				err = rs.deliver(int(to[k]), t.Id, m.Payload)
				rs.mu.Unlock()
				if err != nil {
					// This consumer's wire reference and those of the
					// consumers not reached yet (but the pointer pass) were
					// never handed out.
					for j := k; j < last || j == last && !lastLocal; j++ {
						wire.Release()
					}
					return abandon(batch, out[slot+1:]), err
				}
				continue
			}
			if env.seq != nil {
				m.Seq = env.seq[rank].Add(1)
			}
			batch = append(batch, m)
		}
	}
	if len(batch) == 0 {
		return batch, nil
	}
	tr := env.trs[rank]
	err := tr.SendN(batch)
	if err != nil {
		// A send refused by a transport that has already failed is an echo
		// of that failure (a lost peer closes the mailboxes); report the
		// typed cause.
		if cause := tr.Err(); cause != nil {
			err = cause
		}
	}
	clear(batch) // drop payload references until the next task reuses it
	return batch, err
}

// abandon releases what a failed route never handed on — the messages
// batched for sending and the outputs of the slots not routed yet — and
// returns the emptied batch.
func abandon(batch []fabric.Message, unrouted []core.Payload) []fabric.Message {
	for k := range batch {
		batch[k].Payload.Release()
	}
	for k := range unrouted {
		unrouted[k].Release()
	}
	clear(batch)
	return batch[:0]
}

var _ core.Controller = (*Controller)(nil)
