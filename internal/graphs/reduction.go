// Package graphs provides the prototypical task graphs that ship with
// BabelFlow: k-way reductions, broadcasts, binary swaps, k-way merge
// (all-reduce) and neighbor dataflows, plus a Builder for composing graphs
// via id prefixes. Users can employ these directly — registering one
// callback per task type — or derive new extensions.
package graphs

import (
	"fmt"
	"slices"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Callback slots of a Reduction, in the order returned by Callbacks().
// Mirroring Listing 1 of the paper: index 0 runs at the leaves (e.g. volume
// rendering of the local block), index 1 at internal nodes (compositing),
// index 2 at the root (writing the image).
const (
	ReduceLeafCB core.CallbackId = iota
	ReduceMidCB
	ReduceRootCB
)

// tree is the shape Reduction and Broadcast share: a k-ary tree over k^d
// leaves. Task 0 is the root; the children of task t are t*k+1 .. t*k+k and
// the parent of t is (t-1)/k. Leaves occupy the last k^d ids.
type tree struct {
	k      int
	d      int
	leafs  int
	ntasks int
}

func newTree(leafs, valence int) (tree, error) {
	if valence < 2 {
		return tree{}, fmt.Errorf("graphs: reduction valence must be >= 2, got %d", valence)
	}
	if leafs < 1 {
		return tree{}, fmt.Errorf("graphs: reduction needs at least one leaf, got %d", leafs)
	}
	d, n := 0, 1
	for n < leafs {
		n *= valence
		d++
	}
	if n != leafs {
		return tree{}, fmt.Errorf("graphs: reduction leaf count %d is not a power of valence %d", leafs, valence)
	}
	// ntasks = (k^(d+1) - 1) / (k - 1)
	ntasks := (intPow(valence, d+1) - 1) / (valence - 1)
	return tree{k: valence, d: d, leafs: leafs, ntasks: ntasks}, nil
}

// Valence returns the fan-in (reduction) or fan-out (broadcast) of the tree.
func (g *tree) Valence() int { return g.k }

// Depth returns the number of tree levels below the root (0 for a single
// task).
func (g *tree) Depth() int { return g.d }

// Leafs returns the number of leaf tasks.
func (g *tree) Leafs() int { return g.leafs }

// Size implements core.TaskGraph.
func (g *tree) Size() int { return g.ntasks }

// TaskIds implements core.TaskGraph.
func (g *tree) TaskIds() []core.TaskId { return core.ContiguousIds(g.ntasks) }

// Root returns the id of the root task.
func (g *tree) Root() core.TaskId { return 0 }

// LeafIds returns the ids of the leaf tasks in block order: leaf i (the i-th
// block of the decomposition) has id ntasks-leafs+i.
func (g *tree) LeafIds() []core.TaskId {
	ids := make([]core.TaskId, g.leafs)
	first := g.ntasks - g.leafs
	for i := range ids {
		ids[i] = core.TaskId(first + i)
	}
	return ids
}

// role sorts task i: the root first, then leaves, then inner tasks.
func (g *tree) role(i int, root, leaf, inner core.CallbackId) core.CallbackId {
	switch {
	case i == 0:
		return root
	case i >= g.ntasks-g.leafs:
		return leaf
	}
	return inner
}

// span returns the n ids from first on, in buf's storage if they fit.
func span(buf []core.TaskId, first core.TaskId, n int) []core.TaskId {
	buf = slices.Grow(buf, n)
	for c := 0; c < n; c++ {
		buf = append(buf, first+core.TaskId(c))
	}
	return buf
}

// Reduction is a k-way reduction tree over k^d leaves (Listing 2 of the
// paper), in the tree's id scheme. Each leaf takes one external input; the
// root produces the single sink output.
type Reduction struct{ tree }

// NewReduction returns a reduction over the given number of leaves with the
// given valence (fan-in). The leaf count must be an exact power of the
// valence; see RoundUpPow to size block decompositions accordingly.
func NewReduction(leafs, valence int) (*Reduction, error) {
	t, err := newTree(leafs, valence)
	if err != nil {
		return nil, err
	}
	return &Reduction{t}, nil
}

// Callbacks implements core.TaskGraph.
func (g *Reduction) Callbacks() []core.CallbackId {
	return []core.CallbackId{ReduceLeafCB, ReduceMidCB, ReduceRootCB}
}

// FirstLeaf returns the id of leaf 0.
func (g *Reduction) FirstLeaf() core.TaskId { return core.TaskId(g.ntasks - g.leafs) }

// write is the reduction's edge rule, writing task i: a leaf takes one
// external input, any other task its k children in order, and each sends
// its one output to its parent — the root to rootTo, a sink when empty.
// cbs names the leaf, inner and root callbacks.
func (g *Reduction) write(w *core.PlanWriter, i int, cbs [3]core.CallbackId, rootTo ...core.TaskId) {
	id, cb := core.TaskId(i), g.role(i, cbs[2], cbs[0], cbs[1])
	if i >= g.ntasks-g.leafs {
		w.Task(id, cb, core.ExternalInput)
	} else {
		var buf [8]core.TaskId
		w.Task(id, cb, span(buf[:0], core.TaskId(i*g.k+1), g.k)...)
	}
	if i == 0 {
		w.Slot(rootTo...)
	} else {
		w.Slot(core.TaskId((i - 1) / g.k))
	}
}

var reduceCBs = [3]core.CallbackId{ReduceLeafCB, ReduceMidCB, ReduceRootCB}

// Task implements core.TaskGraph.
func (g *Reduction) Task(id core.TaskId) (core.Task, bool) {
	if id >= core.TaskId(g.ntasks) {
		return core.Task{}, false
	}
	var w core.PlanWriter
	g.write(&w, int(id), reduceCBs)
	return w.Written(), true
}

// WritePlan implements core.PlanSource.
func (g *Reduction) WritePlan(w *core.PlanWriter) {
	// Every task has one output slot, and every task but the root is one
	// input of its parent.
	w.Grow(g.ntasks, g.leafs+g.ntasks-1, g.ntasks, g.ntasks-1)
	for i := range g.ntasks {
		g.write(w, i, reduceCBs)
	}
}

// RoundUpPow returns the smallest power of base that is >= n.
func RoundUpPow(n, base int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p *= base
	}
	return p
}

func intPow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

var _ core.PlanSource = (*Reduction)(nil)
