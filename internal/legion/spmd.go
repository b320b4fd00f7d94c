package legion

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Options configures the Legion controllers.
type Options struct {
	// Workers bounds the concurrency of an index launch (IndexLaunch
	// controller only); zero selects 4. The SPMD controller's concurrency
	// is the shard count of its task map.
	Workers int
	// Observer, when non-nil, receives a TaskRan event per executed task.
	Observer core.Observer
}

// SPMD is the Legion SPMD controller: one long-running shard task per task
// map shard, started together with a must-parallelism launcher; shards
// synchronize exclusively through the phase barriers of the region store.
type SPMD struct {
	core.Base
	opt     Options
	shards  int
	shardOf []int32 // the task map's placement, by plan index

	lastMetrics Metrics
}

// Metrics reports where a Legion run spent its time, matching the series of
// Fig. 3: task execution (compute), staging payloads into and out of
// regions, and the number of launcher invocations.
type Metrics struct {
	// ComputeNS is the total nanoseconds spent inside task callbacks,
	// summed over tasks.
	ComputeNS int64
	// StagingNS is the total nanoseconds spent serializing payloads into
	// regions and materializing them back.
	StagingNS int64
	// Launches counts launcher invocations: single-task launches for SPMD,
	// index launches (one per round) for IndexLaunch.
	Launches int64
	// Tasks counts executed tasks.
	Tasks int64
}

// NewSPMD returns a Legion SPMD controller.
func NewSPMD(opt Options) *SPMD {
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	return &SPMD{opt: opt}
}

// Initialize implements core.Controller. Like the MPI controller, the SPMD
// controller makes use of the task map: shards are conceptually similar to
// the MPI rank assignment.
func (c *SPMD) Initialize(g core.TaskGraph, m core.TaskMap) error {
	p, err := core.Compile(g)
	if err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("legion: the SPMD controller requires a task map")
	}
	shardOf, err := p.Place(m)
	if err != nil {
		return err
	}
	c.shards, c.shardOf = m.ShardCount(), shardOf
	return c.Bind(p)
}

// Metrics returns the timing breakdown of the last Run.
func (c *SPMD) Metrics() Metrics { return c.lastMetrics }

// Run implements core.Controller.
func (c *SPMD) Run(initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.RunContext(context.Background(), initial)
}

// RunContext implements core.Controller: a finished context cancels the
// region store, releasing every blocked phase barrier so the shard tasks
// unwind, and the returned error wraps core.ErrCancelled.
func (c *SPMD) RunContext(ctx context.Context, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	if err := c.Preflight(initial, nil, 0); err != nil {
		return nil, err
	}
	r := newRun(&c.Base, c.opt, initial)
	r.Watch(ctx, r.Fail)

	// Must-parallelism launch: one shard task per shard, all running
	// concurrently without runtime synchronization between them.
	var wg sync.WaitGroup
	for s := 0; s < c.shards; s++ {
		wg.Add(1)
		go func(shard core.ShardId) {
			defer wg.Done()
			if err := c.runShard(shard, r); err != nil {
				r.Fail(err)
			}
		}(core.ShardId(s))
	}
	wg.Wait()
	return r.end(&c.lastMetrics)
}

// runShard is the long-running per-shard task. It schedules its assigned
// tasks with single-task launchers in ascending global level order; inputs
// are satisfied through region waits (phase barriers). Because every shard
// respects the level order, the blocked task of minimal level always has
// all its producers already executed or executing, so the schedule cannot
// deadlock.
func (c *SPMD) runShard(shard core.ShardId, r *run) error {
	p := c.Plan()
	var local []int // the shard's plan indices, ascending: id order
	for i, s := range c.shardOf {
		if s == int32(shard) {
			local = append(local, i)
		}
	}
	// Global level order (level, then id): every shard walks its local
	// tasks in it, which guarantees progress.
	ids := p.TaskIds()
	slices.SortStableFunc(local, func(a, b int) int { return p.Height(ids[a]) - p.Height(ids[b]) })

	for _, i := range local {
		t := p.TaskAt(i)
		// Single task launcher: gather region requirements, wait for them,
		// execute, stage the outputs.
		r.met.launch()
		in, err := r.gather(t)
		if err != nil {
			return err
		}
		out, err := r.step(t, in, shard)
		if err != nil {
			return err
		}
		if err := r.stage(t, out); err != nil {
			return err
		}
	}
	return nil
}

var _ core.Controller = (*SPMD)(nil)
