// Package core implements the BabelFlow embedded domain-specific language:
// a runtime-independent description of a parallel algorithm as a graph of
// idempotent tasks connected by a dataflow.
//
// The three central abstractions follow the paper (Petruzza et al.,
// "BabelFlow: An Embedded Domain Specific Language for Parallel Analysis and
// Visualization", IPDPS 2018):
//
//   - TaskGraph: a procedural description of the algorithm. The graph is
//     never fully materialized; any part of the framework may query it for
//     the logical Task corresponding to a TaskId.
//   - TaskMap: an assignment of tasks to shards (ranks). Only the MPI and
//     some Legion controllers need it; Charm++ places tasks itself.
//   - Controller: executes a task graph on a particular runtime after the
//     user registers one Callback per task type.
//
// Payloads exchanged between tasks are either binary buffers or in-memory
// objects; controllers serialize objects only when a message crosses a shard
// boundary or fans out to several consumers.
package core

import (
	"fmt"
	"slices"
)

// TaskId is the globally unique identifier of a logical task. Id spaces do
// not have to be contiguous: composite graphs assign distinct prefixes to
// their sub-graphs and number tasks within each prefix.
type TaskId uint64

// ExternalInput is the reserved TaskId marking a dataflow input that is
// provided from outside the graph (simulation data, disk, the initial inputs
// passed to Controller.Run) rather than produced by another task.
const ExternalInput TaskId = ^TaskId(0)

// CallbackId identifies a task type. Each task in a graph carries a
// CallbackId; the user registers the corresponding Callback implementation
// with the controller before execution.
type CallbackId uint32

// ShardId identifies an execution shard: an MPI rank, a Charm++ processing
// element, or a Legion shard.
type ShardId int

// Task is the logical description of one unit of computation: its identity,
// which callback implements it, which tasks produce its inputs and which
// tasks consume its outputs.
//
// Incoming holds one producer per input slot, in slot order; ExternalInput
// marks slots fed by Controller.Run's initial inputs. Outgoing holds, for
// each output slot, the list of consumer tasks; an output slot with no
// consumers is a sink whose payloads are returned from Run.
type Task struct {
	Id       TaskId
	Callback CallbackId
	Incoming []TaskId
	Outgoing [][]TaskId

	// Cond, when non-nil, marks output slots as conditional: Cond[slot] is
	// the branch index (>= 0) the slot belongs to, or -1 for an
	// unconditional slot. At runtime the task's callback chooses the active
	// branch and fills every slot of the losing branches with a dead token
	// (SelectBranch); controllers cancel any downstream task that receives
	// one, so only the chosen branch's successors execute. Cond must have
	// exactly one entry per output slot and every branch in [0, Branches)
	// must own at least one slot.
	Cond []int
	// Branches is the number of runtime branches among the task's output
	// slots; 0 means the task has no conditional slots (Cond must be nil).
	Branches int
}

// NewTask returns a task with the given id and callback and no edges.
func NewTask(id TaskId, cb CallbackId) Task {
	return Task{Id: id, Callback: cb}
}

// InDegree reports the number of input slots of the task, counting external
// inputs.
func (t *Task) InDegree() int { return len(t.Incoming) }

// OutDegree reports the total number of consumer edges across all output
// slots.
func (t *Task) OutDegree() int {
	n := 0
	for _, slot := range t.Outgoing {
		n += len(slot)
	}
	return n
}

// IsLeaf reports whether every input slot of the task is fed externally.
// Leaf tasks are the entry points of the dataflow.
func (t *Task) IsLeaf() bool {
	for _, in := range t.Incoming {
		if in != ExternalInput {
			return false
		}
	}
	return true
}

// IsRoot reports whether the task has at least one sink output slot, i.e. an
// output with no consumers whose payloads leave the dataflow.
func (t *Task) IsRoot() bool {
	if len(t.Outgoing) == 0 {
		return true
	}
	for _, slot := range t.Outgoing {
		if len(slot) == 0 {
			return true
		}
	}
	return false
}

// Consumers returns the de-duplicated, sorted set of tasks consuming any
// output of the task.
func (t *Task) Consumers() []TaskId {
	out := make([]TaskId, 0, t.OutDegree())
	for _, slot := range t.Outgoing {
		out = append(out, slot...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Producers returns the de-duplicated, sorted set of tasks producing any
// input of the task, excluding external inputs.
func (t *Task) Producers() []TaskId {
	out := make([]TaskId, 0, len(t.Incoming))
	for _, p := range t.Incoming {
		if p != ExternalInput {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Clone returns a deep copy of the task.
func (t *Task) Clone() Task {
	c := Task{Id: t.Id, Callback: t.Callback}
	if t.Incoming != nil {
		c.Incoming = append([]TaskId(nil), t.Incoming...)
	}
	if t.Outgoing != nil {
		c.Outgoing = make([][]TaskId, len(t.Outgoing))
		for i, slot := range t.Outgoing {
			c.Outgoing[i] = append([]TaskId(nil), slot...)
		}
	}
	if t.Cond != nil {
		c.Cond = append([]int(nil), t.Cond...)
	}
	c.Branches = t.Branches
	return c
}

// String renders the task for debugging.
func (t Task) String() string {
	if t.Branches > 0 {
		return fmt.Sprintf("task %d (cb %d, in %v, out %v, cond %v/%d)", t.Id, t.Callback, t.Incoming, t.Outgoing, t.Cond, t.Branches)
	}
	return fmt.Sprintf("task %d (cb %d, in %v, out %v)", t.Id, t.Callback, t.Incoming, t.Outgoing)
}
