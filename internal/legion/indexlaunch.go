package legion

import (
	"context"
	"sync"

	"github.com/babelflow/babelflow-go/internal/core"
)

// IndexLaunch is the Legion index-launch controller: the top-level task
// crawls the graph to group the tasks into rounds of non-interfering tasks
// (tasks with no dependencies among each other) and executes one index
// launch per round, mapping the outputs of the previous launch to the
// inputs of the next.
//
// Neither phase barriers nor task maps are required: the parent task stages
// every subtask's inputs and outputs itself. That per-subtask preparation
// cost, borne serially by the parent, is the scaling bottleneck the paper
// measures in Figs. 2 and 3.
type IndexLaunch struct {
	core.Base
	opt Options

	lastMetrics Metrics
}

// NewIndexLaunch returns a Legion index-launch controller.
func NewIndexLaunch(opt Options) *IndexLaunch {
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	return &IndexLaunch{opt: opt}
}

// Initialize implements core.Controller. The task map is optional and
// ignored: index launches let the runtime distribute the tasks.
func (c *IndexLaunch) Initialize(g core.TaskGraph, _ core.TaskMap) error { return c.Bind(g) }

// Metrics returns the timing breakdown of the last Run.
func (c *IndexLaunch) Metrics() Metrics { return c.lastMetrics }

// Run implements core.Controller. It acts as the top-level task.
func (c *IndexLaunch) Run(initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.RunContext(context.Background(), initial)
}

// RunContext implements core.Controller. Cancellation is observed between
// index launches: the parent checks the context before preparing each round
// and refuses to launch once it is done, returning an error wrapping
// core.ErrCancelled. Subtasks already in flight run to completion — an
// index launch is an atomic unit of work for the parent.
func (c *IndexLaunch) RunContext(ctx context.Context, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	if err := c.Preflight(initial, nil, 0); err != nil {
		return nil, err
	}
	r := newRun(&c.Base, c.opt, initial)
	if err := c.launchRounds(ctx, r); err != nil {
		r.Fail(err)
	}
	return r.end(&c.lastMetrics)
}

// launchRounds is the top-level task's loop: one index launch per round of
// non-interfering tasks, until a round fails or the context ends.
func (c *IndexLaunch) launchRounds(ctx context.Context, r *run) error {
	p := c.Plan()
	for _, round := range p.Levels() {
		if ctx.Err() != nil {
			return core.Cancelled(ctx)
		}
		// The parent prepares every subtask's region requirements serially
		// (gathering inputs counts as staging and is the parent-borne launch
		// overhead), then the subtasks of the round execute concurrently.
		r.met.launch()
		type launchRecord struct {
			task core.Task
			in   []core.Payload
		}
		records := make([]launchRecord, 0, len(round))
		for _, id := range round {
			t, _ := p.Task(id)
			in, err := r.gather(t)
			if err != nil {
				return err
			}
			records = append(records, launchRecord{task: t, in: in})
		}

		sem := make(chan struct{}, c.opt.Workers)
		var wg sync.WaitGroup
		outs := make([][]core.Payload, len(records))
		errs := make([]error, len(records))
		for i, rec := range records {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, rec launchRecord) {
				defer wg.Done()
				defer func() { <-sem }()
				outs[i], errs[i] = r.step(rec.task, rec.in, core.ShardId(i%c.opt.Workers))
			}(i, rec)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		// The parent maps the launch's outputs into regions for the next
		// round.
		for i, rec := range records {
			if err := r.stage(rec.task, outs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

var _ core.Controller = (*IndexLaunch)(nil)
