package graphs

import (
	"fmt"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Callback slots of a Broadcast, in the order returned by Callbacks().
const (
	// BcastSourceCB runs at the root, which receives the external input.
	BcastSourceCB core.CallbackId = iota
	// BcastRelayCB runs at internal nodes, forwarding the data downward.
	BcastRelayCB
	// BcastSinkCB runs at the leaves, which produce the sink outputs.
	BcastSinkCB
)

// Broadcast is a k-way broadcast tree over k^d leaves: the mirror image of a
// Reduction, in the same id scheme. The root receives one external input;
// every node forwards one output, multicast to its k children; leaves emit
// sink outputs. The paper's merge-tree dataflow uses such relay trees to fan
// augmented boundary trees out to the correction tasks without overloading
// a single join task.
type Broadcast struct{ tree }

// NewBroadcast returns a broadcast over the given number of leaves with the
// given valence (fan-out). The leaf count must be a power of the valence.
func NewBroadcast(leafs, valence int) (*Broadcast, error) {
	t, err := newTree(leafs, valence)
	if err != nil {
		return nil, fmt.Errorf("graphs: broadcast: %w", err)
	}
	return &Broadcast{t}, nil
}

// Callbacks implements core.TaskGraph.
func (g *Broadcast) Callbacks() []core.CallbackId {
	return []core.CallbackId{BcastSourceCB, BcastRelayCB, BcastSinkCB}
}

// write is the broadcast's edge rule, writing task i with its ids shifted
// by base: the root takes its input from rootFrom, any other task from its
// parent, and each multicasts its one output to its k children — a leaf's
// is a sink. cbs names the root, inner and leaf callbacks.
func (g *Broadcast) write(w *core.PlanWriter, i int, base core.TaskId, cbs [3]core.CallbackId, rootFrom core.TaskId) {
	id, cb := base+core.TaskId(i), g.role(i, cbs[0], cbs[2], cbs[1])
	if i == 0 {
		w.Task(id, cb, rootFrom)
	} else {
		w.Task(id, cb, base+core.TaskId((i-1)/g.k))
	}
	if i >= g.ntasks-g.leafs {
		w.Slot()
	} else {
		var buf [8]core.TaskId
		w.Slot(span(buf[:0], base+core.TaskId(i*g.k+1), g.k)...)
	}
}

var bcastCBs = [3]core.CallbackId{BcastSourceCB, BcastRelayCB, BcastSinkCB}

// Task implements core.TaskGraph.
func (g *Broadcast) Task(id core.TaskId) (core.Task, bool) {
	if id >= core.TaskId(g.ntasks) {
		return core.Task{}, false
	}
	var w core.PlanWriter
	g.write(&w, int(id), 0, bcastCBs, core.ExternalInput)
	return w.Written(), true
}

// WritePlan implements core.PlanSource.
func (g *Broadcast) WritePlan(w *core.PlanWriter) {
	// One input and one output slot per task; every task but the root is
	// one consumer of its parent.
	w.Grow(g.ntasks, g.ntasks, g.ntasks, g.ntasks-1)
	for i := range g.ntasks {
		g.write(w, i, 0, bcastCBs, core.ExternalInput)
	}
}

var _ core.PlanSource = (*Broadcast)(nil)
