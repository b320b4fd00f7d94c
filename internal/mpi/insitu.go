package mpi

import (
	"context"
	"fmt"
	"sync"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// Group is the in-situ coupling mode of the MPI controller (§III of the
// paper): instead of one driver starting the whole dataflow, the graph is
// split across the ranks and each rank instantiates only its assigned
// sub-graph, requiring only the data local to that rank. Each simulation
// rank obtains its Shard, registers the callbacks, hands over its local
// external inputs and calls Run — typically concurrently from the host
// application's per-rank control flow.
type Group struct {
	ctrl *Controller
	fab  fabric.Transport
	att  core.Attempt // the group's first failure; cancels fab

	mu        sync.Mutex
	started   map[int]bool
	pool      *fabric.Pool
	completed int
}

// NewGroup prepares an in-situ execution of the graph over the task map's
// shards. The options follow the standalone controller.
func NewGroup(g core.TaskGraph, m core.TaskMap, opts ...Option) (*Group, error) {
	c := New(opts...)
	if err := c.Initialize(g, m); err != nil {
		return nil, err
	}
	fab := fabric.New(m.ShardCount())
	gr := &Group{ctrl: c, fab: fab, started: make(map[int]bool)}
	gr.att.Cancel = fab.Cancel
	c.onFail = gr.att.Fail
	return gr, nil
}

// RegisterCallback binds a task type's implementation for every shard of
// the group (in situ, every rank runs the same analysis code).
func (gr *Group) RegisterCallback(cb core.CallbackId, fn core.Callback) error {
	return gr.ctrl.RegisterCallback(cb, fn)
}

// Ranks returns the number of shards of the group.
func (gr *Group) Ranks() int { return gr.fab.Ranks() }

// Shard returns the per-rank handle.
func (gr *Group) Shard(rank int) (*Shard, error) {
	if rank < 0 || rank >= gr.fab.Ranks() {
		return nil, fmt.Errorf("mpi: group has no rank %d", rank)
	}
	return &Shard{group: gr, rank: rank}, nil
}

// Err returns the first error any shard hit.
func (gr *Group) Err() error { return gr.att.Err() }

// Shard is one rank's view of an in-situ dataflow execution.
type Shard struct {
	group *Group
	rank  int
}

// Rank returns the shard's rank.
func (s *Shard) Rank() int { return s.rank }

// Run executes this rank's sub-graph: it consumes the rank-local external
// inputs, exchanges messages with the other shards through the group's
// fabric, and returns the sink outputs produced by tasks of this rank. It
// blocks until the local sub-graph completes (or any shard fails) and must
// be called exactly once per rank, typically concurrently across ranks —
// the group's shared work-stealing executor starts with the first Run and
// is released when the last rank's Run returns.
func (s *Shard) Run(initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return s.RunContext(context.Background(), initial)
}

// RunContext is Run with cancellation and deadline propagation: a finished
// context cancels the group's fabric, unwinding every shard with an error
// wrapping core.ErrCancelled.
func (s *Shard) RunContext(ctx context.Context, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	gr := s.group
	gr.mu.Lock()
	if gr.started[s.rank] {
		gr.mu.Unlock()
		return nil, fmt.Errorf("mpi: rank %d already ran", s.rank)
	}
	gr.started[s.rank] = true
	// All shards dispatch into one executor, so an idle rank's worker can
	// steal a loaded rank's ready tasks.
	if gr.pool == nil {
		gr.pool = gr.ctrl.opt.newPool(gr.ctrl.Plan().Size(), gr.fab.Ranks(), allRanks)
	}
	pool := gr.pool
	gr.mu.Unlock()
	defer func() {
		gr.mu.Lock()
		gr.completed++
		last := gr.completed == gr.fab.Ranks()
		gr.mu.Unlock()
		if last {
			pool.Close()
		}
	}()

	// One epoch, this rank alone, over the group's fabric and pool. Rank
	// failures reach the group through the controller's onFail hook before
	// the fabric is cancelled; Fail here covers failures ahead of the epoch.
	results, err := gr.ctrl.run(ctx, s.rank, gr.fab, pool, nil, nil, initial)
	if err != nil {
		gr.att.Fail(err)
	}
	if err := gr.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
