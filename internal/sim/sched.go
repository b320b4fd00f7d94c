// Package sim is the performance substrate of the reproduction: a
// discrete-event simulator that executes real BabelFlow task graphs under
// per-runtime cost models of a Shaheen-II-class machine. The paper's
// evaluation (Figs. 2, 3, 6, 9, 10) reports wall-clock times at 128-32768
// cores; the simulator reproduces the *shapes* of those curves — who wins,
// by roughly what factor, and where crossovers fall — by modeling the
// mechanisms the paper identifies:
//
//   - MPI: static placement, asynchronous sends overlapped with compute;
//   - "Original MPI": the hand-tuned baseline's blocking communication
//     without compute/communication overlap;
//   - Charm++: dynamic placement (periodic load balancing) with RPC
//     overhead on every message;
//   - Legion SPMD: static shards plus a serialized runtime-analysis stage
//     whose cost is proportional to the total task count, and payload
//     staging through regions;
//   - Legion index launch: per-round launches whose per-subtask
//     preparation cost is borne serially by the parent task;
//   - IceT-style direct baselines with none of the generic overheads.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Machine models the hardware: core count, network latency and bandwidth,
// and the effective serialization (staging) bandwidth.
type Machine struct {
	Cores       int
	Latency     float64 // seconds per message
	Bandwidth   float64 // bytes/second on the network
	SerializeBW float64 // bytes/second for payload de/serialization
}

// ShaheenII returns machine parameters loosely modeled on the paper's Cray
// XC40 (Aries dragonfly interconnect) with the given core count.
func ShaheenII(cores int) Machine {
	return Machine{
		Cores:       cores,
		Latency:     1.5e-6,
		Bandwidth:   8e9,
		SerializeBW: 2e9,
	}
}

// Workload couples a task graph with its cost model.
type Workload struct {
	Graph core.TaskGraph
	// TaskCost returns the compute seconds of a task.
	TaskCost func(t core.Task) float64
	// MsgBytes returns the payload size emitted on one output slot.
	MsgBytes func(t core.Task, slot int) int
}

// RuntimeModel selects the simulated controller.
type RuntimeModel int

// Simulated runtimes.
const (
	// MPI is the asynchronous, thread-pooled MPI controller.
	MPI RuntimeModel = iota
	// OriginalMPI is the hand-tuned baseline: blocking communication, no
	// compute/communication overlap.
	OriginalMPI
	// Charm is the Charm++ controller with periodic load balancing.
	Charm
	// LegionSPMD is the Legion SPMD controller.
	LegionSPMD
	// LegionIL is the Legion index-launch controller.
	LegionIL
	// Direct is a specialized hand-coded implementation (IceT): static
	// placement with zero framework overheads.
	Direct
)

// String names the runtime like the paper's figure legends.
func (r RuntimeModel) String() string {
	switch r {
	case MPI:
		return "MPI"
	case OriginalMPI:
		return "Original MPI"
	case Charm:
		return "Charm++"
	case LegionSPMD:
		return "Legion"
	case LegionIL:
		return "Legion IL"
	case Direct:
		return "IceT"
	}
	return fmt.Sprintf("runtime(%d)", int(r))
}

// Overheads are the per-runtime cost parameters. DefaultOverheads returns
// the calibrated values; tests and ablation benches vary them.
type Overheads struct {
	// TaskOverhead is charged on the executing core per task (thread
	// dispatch for MPI, RPC scheduling for Charm++, mapper work for
	// Legion).
	TaskOverhead float64
	// MsgOverhead is charged on the sending core per message.
	MsgOverhead float64
	// AnalysisCost serializes every task through a global runtime-analysis
	// resource (Legion's dynamic dependence analysis); zero disables it.
	AnalysisCost float64
	// SpawnCost is the per-subtask launch cost borne serially by the
	// parent (Legion index launches).
	SpawnCost float64
	// Stage enables payload staging: every payload is pushed through the
	// machine's serialization bandwidth on both the producer and consumer
	// side (Legion regions; also the always-serialize MPI ablation).
	Stage bool
	// SerializeRemote charges serialization for messages crossing shards
	// only — the generic controllers' de/serialization that specialized
	// implementations like IceT avoid (§V-B). Intra-shard messages use the
	// in-memory optimization and stay free.
	SerializeRemote bool
	// Blocking disables compute/communication overlap: transfer time is
	// charged to the sending core (Original MPI).
	Blocking bool
	// AlwaysRemote charges network cost for every message regardless of
	// placement (Charm++ RPC between chares whose location the sender
	// does not know).
	AlwaysRemote bool
	// Dynamic places each ready task on the earliest-available core
	// instead of using the static map (Charm++ load balancing).
	Dynamic bool
}

// DefaultOverheads returns the calibrated overhead set of a runtime.
func DefaultOverheads(r RuntimeModel) Overheads {
	switch r {
	case MPI:
		return Overheads{TaskOverhead: 5e-6, MsgOverhead: 1e-6, SerializeRemote: true}
	case OriginalMPI:
		return Overheads{TaskOverhead: 1e-6, Blocking: true, SerializeRemote: true}
	case Charm:
		return Overheads{TaskOverhead: 2e-5, MsgOverhead: 2e-6, AlwaysRemote: true, Dynamic: true, SerializeRemote: true}
	case LegionSPMD:
		return Overheads{TaskOverhead: 5e-5, MsgOverhead: 1e-6, AnalysisCost: 3e-5, Stage: true}
	case LegionIL:
		return Overheads{TaskOverhead: 5e-5, MsgOverhead: 1e-6, SpawnCost: 1.5e-4, Stage: true}
	case Direct:
		return Overheads{}
	}
	return Overheads{}
}

// Result is the outcome of a simulated execution.
type Result struct {
	// Makespan is the simulated wall-clock of the dataflow.
	Makespan float64
	// Compute is the sum of task compute costs.
	Compute float64
	// Staging is the total serialization cost (Legion region staging).
	Staging float64
	// Overhead is the total runtime-induced cost (task, message, spawn and
	// analysis overheads).
	Overhead float64
	// Tasks is the number of executed tasks.
	Tasks int
}

// Execute simulates a workload on a machine under the given runtime model
// with its default overheads.
func Execute(w Workload, m Machine, r RuntimeModel) (Result, error) {
	return ExecuteWith(w, m, r, DefaultOverheads(r))
}

// ExecuteWith simulates with explicit overhead parameters. The Legion
// index-launch model executes the graph round by round; every other model
// uses greedy list scheduling over the dataflow.
func ExecuteWith(w Workload, m Machine, r RuntimeModel, o Overheads) (Result, error) {
	if m.Cores < 1 {
		return Result{}, fmt.Errorf("sim: machine needs at least one core")
	}
	if r == LegionIL {
		return executeRounds(w, m, o)
	}
	return executeList(w, m, o)
}

// readyItem orders the scheduler's ready queue by time, then critical-path
// priority (deepest downstream chain first — the same core.Plan depth the
// real MPI controller dispatches by, so the simulator and
// the controller rank simultaneously ready tasks identically), then task
// index for determinism.
type readyItem struct {
	at  float64
	pri int
	idx int
}

type readyHeap []readyItem

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].idx < h[j].idx
}
func (h readyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)        { *h = append(*h, x.(readyItem)) }
func (h *readyHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h *readyHeap) push(it readyItem) { heap.Push(h, it) }
func (h *readyHeap) pop() readyItem    { return heap.Pop(h).(readyItem) }

// executeList is the greedy list scheduler shared by the MPI, Charm++,
// Legion SPMD and Direct models. Tasks become ready when their last input
// arrives; ready tasks start on their core (static placement) or on the
// earliest-free core (dynamic placement) in ready order — the paper's
// "each task is started as soon as all its input data has been received".
func executeList(w Workload, m Machine, o Overheads) (Result, error) {
	plan, err := core.Compile(w.Graph)
	if err != nil {
		return Result{}, err
	}
	n := plan.Size()
	place := make([]int, n)
	for i := range place {
		place[i] = i % m.Cores
	}

	arrival := make([]float64, n)
	missing := make([]int, n)
	coreFree := make([]float64, m.Cores)
	var rtFree float64 // Legion's serialized runtime-analysis resource

	var ready readyHeap
	for i := 0; i < n; i++ {
		t := plan.TaskAt(i)
		cnt := 0
		for _, p := range t.Incoming {
			if p != core.ExternalInput {
				cnt++
			}
		}
		missing[i] = cnt
		if cnt == 0 {
			ready.push(readyItem{at: 0, pri: plan.Depth(t.Id), idx: i})
		}
	}

	var res Result
	res.Tasks = n
	executed := 0
	for ready.Len() > 0 {
		it := ready.pop()
		i := it.idx
		t := plan.TaskAt(i)

		// Input volume, used for staging and migration costs.
		inBytes := 0
		if o.Stage || o.Dynamic {
			for _, p := range t.Producers() {
				pt, _ := plan.Task(p)
				for s, cs := range pt.Outgoing {
					for _, c := range cs {
						if c == t.Id {
							inBytes += w.MsgBytes(pt, s)
						}
					}
				}
			}
		}

		rank := place[i]
		start := math.Max(it.at, coreFree[rank])
		if o.Dynamic {
			// Periodic load balancing: the chare runs on the earliest-free
			// PE; moving it off its home PE migrates its state.
			rank = minCore(coreFree)
			start = math.Max(it.at, coreFree[rank])
			if rank != place[i] {
				mig := m.Latency + float64(inBytes)/m.Bandwidth
				start += mig
				res.Overhead += mig
			}
		}
		if o.AnalysisCost > 0 {
			// Every task passes through the global analysis stage first.
			rtStart := math.Max(it.at, rtFree)
			rtFree = rtStart + o.AnalysisCost
			res.Overhead += o.AnalysisCost
			start = math.Max(start, rtFree)
		}
		cost := w.TaskCost(t)
		end := start + o.TaskOverhead + cost
		res.Compute += cost
		res.Overhead += o.TaskOverhead

		// Staging in: materialize the inputs from regions.
		if o.Stage {
			st := float64(inBytes) / m.SerializeBW
			end += st
			res.Staging += st
		}

		// Route outputs.
		for slot, consumers := range t.Outgoing {
			size := w.MsgBytes(t, slot)
			for _, c := range consumers {
				ci, _ := plan.Index(c)
				transfer := m.Latency + float64(size)/m.Bandwidth
				var arrive float64
				remote := o.AlwaysRemote || o.Dynamic || place[ci] != rank
				switch {
				case o.Blocking && remote:
					// Blocking rendezvous send: the sender serializes the
					// payload, stalls until the receiving rank is ready to
					// post the receive, then the transfer occupies the
					// sender core — no overlap of computation and
					// communication (the gap the paper attributes the
					// Original-MPI baseline's slowdown to).
					var st float64
					if o.SerializeRemote {
						st = float64(size) / m.SerializeBW
						res.Staging += 2 * st
					}
					wait := math.Max(end+st, coreFree[place[ci]])
					end = wait + transfer
					arrive = end + st
				case remote:
					end += o.MsgOverhead
					res.Overhead += o.MsgOverhead
					if o.SerializeRemote {
						// Serialize on the sender, deserialize on arrival.
						st := float64(size) / m.SerializeBW
						end += st
						arrive = end + transfer + st
						res.Staging += 2 * st
						break
					}
					arrive = end + transfer
				default:
					arrive = end
				}
				if o.Stage {
					st := float64(size) / m.SerializeBW
					end += st
					res.Staging += st
					arrive += st
				}
				if arrive > arrival[ci] {
					arrival[ci] = arrive
				}
				missing[ci]--
				if missing[ci] == 0 {
					ready.push(readyItem{at: arrival[ci], pri: plan.Depth(c), idx: ci})
				}
			}
		}

		coreFree[rank] = end
		if end > res.Makespan {
			res.Makespan = end
		}
		executed++
	}
	if executed != n {
		return Result{}, fmt.Errorf("sim: executed %d of %d tasks (graph not connected to inputs?)", executed, n)
	}
	return res, nil
}

func minCore(free []float64) int {
	mi := 0
	for i, f := range free {
		if f < free[mi] {
			mi = i
		}
	}
	return mi
}

// executeRounds is the Legion index-launch model: the graph runs as one
// index launch per dependency level. The parent prepares every subtask
// serially (spawn cost plus staging of its inputs and outputs), then the
// round's tasks execute fully parallel across the cores; the next round
// starts when the launch completes.
func executeRounds(w Workload, m Machine, o Overheads) (Result, error) {
	plan, err := core.Compile(w.Graph)
	if err != nil {
		return Result{}, err
	}
	var res Result
	now := 0.0
	for _, round := range plan.Levels() {
		// Parent-borne preparation, serial in the number of subtasks.
		prep := 0.0
		for _, id := range round {
			t, _ := plan.Task(id)
			prep += o.SpawnCost
			res.Overhead += o.SpawnCost
			if o.Stage {
				var bytes int
				for slot := range t.Outgoing {
					bytes += w.MsgBytes(t, slot)
				}
				st := float64(bytes) / m.SerializeBW
				prep += st
				res.Staging += st
			}
		}
		now += prep

		// The subtasks of the round run in parallel over the cores.
		coreFree := make([]float64, m.Cores)
		roundEnd := now
		for i, id := range round {
			t, _ := plan.Task(id)
			cost := w.TaskCost(t)
			res.Compute += cost
			res.Overhead += o.TaskOverhead
			rank := i % m.Cores
			start := math.Max(now, coreFree[rank])
			end := start + o.TaskOverhead + cost
			coreFree[rank] = end
			if end > roundEnd {
				roundEnd = end
			}
		}
		now = roundEnd
		res.Tasks += len(round)
	}
	res.Makespan = now
	return res, nil
}
