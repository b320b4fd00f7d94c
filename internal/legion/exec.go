package legion

import (
	"fmt"
	"sync"
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

func newMetricsCollector() *metricsCollector { return &metricsCollector{} }

func (m *metricsCollector) launch() { m.launches.Add(1) }

func (m *metricsCollector) snapshot() Metrics {
	return Metrics{
		ComputeNS: m.computeNS.Load(),
		StagingNS: m.stagingNS.Load(),
		Launches:  m.launches.Load(),
		Tasks:     m.tasks.Load(),
	}
}

// gatherInputs assembles a task's input payloads: external slots come from
// the initial inputs in order, internal slots from the region store (which
// waits on the producing region's phase barrier). Region reads count as
// staging time.
func gatherInputs(g core.TaskGraph, t core.Task, store *RegionStore, met *metricsCollector, initial map[core.TaskId][]core.Payload) ([]core.Payload, error) {
	in := make([]core.Payload, len(t.Incoming))
	extIdx := 0
	occ := make(map[core.TaskId]int)
	for slot, p := range t.Incoming {
		if p == core.ExternalInput {
			ext := initial[t.Id]
			if extIdx >= len(ext) {
				return nil, fmt.Errorf("legion: task %d missing external input %d", t.Id, extIdx)
			}
			in[slot] = ext[extIdx]
			extIdx++
			continue
		}
		prod, ok := g.Task(p)
		if !ok {
			return nil, fmt.Errorf("legion: task %d names unknown producer %d", t.Id, p)
		}
		ps, err := producerSlot(prod, t.Id, occ[p])
		if err != nil {
			return nil, err
		}
		occ[p]++
		start := time.Now()
		payload, err := store.Get(RegionId{Producer: p, Slot: ps})
		met.stagingNS.Add(int64(time.Since(start)))
		if err != nil {
			return nil, err
		}
		in[slot] = payload
	}
	return in, nil
}

// step runs one ready task through the shared kernel (core.Step), charging
// the call's duration to compute time.
func step(reg *core.Registry, obs core.Observer, t core.Task, in []core.Payload, shard core.ShardId, met *metricsCollector) ([]core.Payload, error) {
	start := time.Now()
	out, _, err := core.Step(reg, obs, t, in, shard)
	met.computeNS.Add(int64(time.Since(start)))
	if err != nil {
		return nil, fmt.Errorf("legion: %w", err)
	}
	met.tasks.Add(1)
	return out, nil
}

// stageOutputs writes a task's outputs into the region store (sink slots go
// to the result map instead). Region writes count as staging time.
func stageOutputs(t core.Task, out []core.Payload, store *RegionStore, met *metricsCollector, results map[core.TaskId][]core.Payload, resMu *sync.Mutex) error {
	for slot, consumers := range t.Outgoing {
		if len(consumers) == 0 {
			// A dead token at a sink is a deactivated branch's non-result.
			if core.IsDead(out[slot]) {
				continue
			}
			resMu.Lock()
			results[t.Id] = append(results[t.Id], out[slot])
			resMu.Unlock()
			continue
		}
		start := time.Now()
		err := store.Put(RegionId{Producer: t.Id, Slot: slot}, out[slot])
		met.stagingNS.Add(int64(time.Since(start)))
		if err != nil {
			return err
		}
	}
	return nil
}
