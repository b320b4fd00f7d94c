package legion

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

// metricsCollector accumulates Metrics concurrently.
type metricsCollector struct {
	computeNS atomic.Int64
	stagingNS atomic.Int64
	launches  atomic.Int64
	tasks     atomic.Int64
}

func (m *metricsCollector) launch() { m.launches.Add(1) }

func (m *metricsCollector) snapshot() Metrics {
	return Metrics{
		ComputeNS: m.computeNS.Load(),
		StagingNS: m.stagingNS.Load(),
		Launches:  m.launches.Load(),
		Tasks:     m.tasks.Load(),
	}
}

// run is the state of one Legion run under either launcher: the attempt,
// whose Cancel is the region store's (it releases every blocked phase
// barrier), the controller's plan and callbacks, its observer, the store,
// the metrics and the external inputs.
type run struct {
	core.Attempt
	base    *core.Base
	obs     core.Observer
	store   *RegionStore
	met     metricsCollector
	initial map[core.TaskId][]core.Payload
}

func newRun(b *core.Base, opt Options, initial map[core.TaskId][]core.Payload) *run {
	r := &run{base: b, obs: opt.Observer, store: NewRegionStore(), initial: initial}
	r.Cancel = r.store.Cancel
	return r
}

// end closes the run on every exit path, once every launched task has
// returned: consumers only ever hold copies of region data, so the staging
// buffers go back to the wire-buffer arena; the metrics are published
// whether or not the run failed.
func (r *run) end(last *Metrics) (map[core.TaskId][]core.Payload, error) {
	sinks, err := r.Result()
	r.store.Release()
	*last = r.met.snapshot()
	return sinks, err
}

// gather assembles a task's input payloads: external slots come from the
// initial inputs in order, internal slots from the region store (which
// waits on the producing region's phase barrier). Region reads count as
// staging time.
func (r *run) gather(t core.Task) ([]core.Payload, error) {
	in := make([]core.Payload, len(t.Incoming))
	extIdx := 0
	occ := make(map[core.TaskId]int)
	for slot, p := range t.Incoming {
		if p == core.ExternalInput {
			ext := r.initial[t.Id]
			if extIdx >= len(ext) {
				return nil, fmt.Errorf("legion: task %d missing external input %d", t.Id, extIdx)
			}
			in[slot] = ext[extIdx]
			extIdx++
			continue
		}
		prod, ok := r.base.Plan().Task(p)
		if !ok {
			return nil, fmt.Errorf("legion: task %d names unknown producer %d", t.Id, p)
		}
		ps, err := producerSlot(prod, t.Id, occ[p])
		if err != nil {
			return nil, err
		}
		occ[p]++
		start := time.Now()
		payload, err := r.store.Get(RegionId{Producer: p, Slot: ps})
		r.met.stagingNS.Add(int64(time.Since(start)))
		if err != nil {
			return nil, err
		}
		in[slot] = payload
	}
	return in, nil
}

// step runs one ready task through the shared kernel (core.Step), charging
// the call's duration to compute time.
func (r *run) step(t core.Task, in []core.Payload, shard core.ShardId) ([]core.Payload, error) {
	start := time.Now()
	out, _, err := core.Step(r.base.Registry(), r.obs, t, in, shard)
	r.met.computeNS.Add(int64(time.Since(start)))
	if err != nil {
		return nil, fmt.Errorf("legion: %w", err)
	}
	r.met.tasks.Add(1)
	return out, nil
}

// stage writes a task's outputs into the region store (sink slots leave
// through the attempt instead). Region writes count as staging time.
func (r *run) stage(t core.Task, out []core.Payload) error {
	for slot, consumers := range t.Outgoing {
		if len(consumers) == 0 {
			r.Sink(t.Id, out[slot])
			continue
		}
		start := time.Now()
		err := r.store.Put(RegionId{Producer: t.Id, Slot: slot}, out[slot])
		r.met.stagingNS.Add(int64(time.Since(start)))
		if err != nil {
			return err
		}
	}
	return nil
}
