package graphs

import (
	"fmt"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Callback slots of a KWayMerge, in the order returned by Callbacks().
const (
	// MergeLeafCB runs at the up-sweep leaves (local computation).
	MergeLeafCB core.CallbackId = iota
	// MergeMidCB runs at internal up-sweep nodes (merge partial results).
	MergeMidCB
	// MergeRootCB runs at the root: merge the final partials and emit the
	// global result, which the down-sweep fans back out.
	MergeRootCB
	// MergeRelayCB runs at internal down-sweep nodes, relaying the global
	// result toward the leaves.
	MergeRelayCB
	// MergeFinalCB runs at the down-sweep leaves: combine the global result
	// with leaf-local state and emit the per-leaf sink output.
	MergeFinalCB
)

// KWayMerge is the k-way merge (all-reduce) dataflow: a k-way reduction
// whose root feeds a mirrored k-way broadcast, so every one of the k^d
// leaves receives the globally merged result. It is the skeleton of
// algorithms that compute a global structure and then distribute it back,
// such as the merge-tree dataflow of Fig. 5.
//
// Ids: the up-sweep reduction occupies [0, nt) with the Reduction id
// scheme; the down-sweep broadcast occupies [nt, 2*nt) with the Broadcast
// scheme shifted by nt. Up-leaf i and down-leaf i correspond to the same
// data block.
type KWayMerge struct {
	up   *Reduction
	down *Broadcast
	nt   int
}

// NewKWayMerge returns a merge dataflow over k^d leaves with valence k.
func NewKWayMerge(leafs, valence int) (*KWayMerge, error) {
	up, err := NewReduction(leafs, valence)
	if err != nil {
		return nil, fmt.Errorf("graphs: k-way merge: %w", err)
	}
	down, _ := NewBroadcast(leafs, valence)
	return &KWayMerge{up: up, down: down, nt: up.Size()}, nil
}

// Leafs returns the number of data blocks (up-sweep leaves).
func (g *KWayMerge) Leafs() int { return g.up.Leafs() }

// Valence returns the tree fan-in/out.
func (g *KWayMerge) Valence() int { return g.up.Valence() }

// Size implements core.TaskGraph.
func (g *KWayMerge) Size() int { return 2 * g.nt }

// TaskIds implements core.TaskGraph.
func (g *KWayMerge) TaskIds() []core.TaskId { return core.ContiguousIds(g.Size()) }

// Callbacks implements core.TaskGraph.
func (g *KWayMerge) Callbacks() []core.CallbackId {
	return []core.CallbackId{MergeLeafCB, MergeMidCB, MergeRootCB, MergeRelayCB, MergeFinalCB}
}

// UpLeafIds returns the ids of the up-sweep leaves in block order.
func (g *KWayMerge) UpLeafIds() []core.TaskId { return g.up.LeafIds() }

// DownLeafIds returns the ids of the down-sweep leaves in block order;
// down-leaf i emits the sink output for block i.
func (g *KWayMerge) DownLeafIds() []core.TaskId {
	ids := g.down.LeafIds()
	for i := range ids {
		ids[i] += core.TaskId(g.nt)
	}
	return ids
}

// write writes task i: the up-sweep by the Reduction rule, its root
// feeding the down-sweep root, and the down-sweep by the Broadcast rule
// shifted by nt, its root fed by the up-sweep root. With a single leaf the
// down-sweep root is the final task.
func (g *KWayMerge) write(w *core.PlanWriter, i int) {
	if i < g.nt {
		g.up.write(w, i, [3]core.CallbackId{MergeLeafCB, MergeMidCB, MergeRootCB}, core.TaskId(g.nt))
		return
	}
	turn := MergeRelayCB
	if g.nt == 1 {
		turn = MergeFinalCB
	}
	g.down.write(w, i-g.nt, core.TaskId(g.nt), [3]core.CallbackId{turn, MergeRelayCB, MergeFinalCB}, g.up.Root())
}

// Task implements core.TaskGraph.
func (g *KWayMerge) Task(id core.TaskId) (core.Task, bool) {
	if id >= core.TaskId(g.Size()) {
		return core.Task{}, false
	}
	var w core.PlanWriter
	g.write(&w, int(id))
	return w.Written(), true
}

// WritePlan implements core.PlanSource.
func (g *KWayMerge) WritePlan(w *core.PlanWriter) {
	// The Reduction's and the Broadcast's totals, plus the edge that joins
	// the two roots.
	w.Grow(2*g.nt, g.Leafs()+2*g.nt-1, 2*g.nt, 2*g.nt-1)
	for i := range 2 * g.nt {
		g.write(w, i)
	}
}

var _ core.PlanSource = (*KWayMerge)(nil)
