package graphs

import (
	"fmt"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Callback slots of a Neighbor2D, in the order returned by Callbacks().
const (
	// NeighborExtractCB runs in phase 0 on every grid cell: read the local
	// block and produce one payload for itself plus one per existing
	// neighbor (e.g. the overlapping halo regions).
	NeighborExtractCB core.CallbackId = iota
	// NeighborProcessCB runs in phase 1 on every grid cell: combine the
	// local payload with the neighbors' payloads (e.g. evaluate the
	// alignment of adjacent volumes) and emit the per-cell sink output.
	NeighborProcessCB
)

// Direction indexes the 2-D neighbor order used consistently for output
// slots and input slots: West, East, North, South.
type Direction int

// Neighbor directions in canonical slot order.
const (
	West Direction = iota
	East
	North
	South
)

// Neighbor2D is a two-phase halo-exchange dataflow over a W x H grid of
// cells (Fig. 8 of the paper uses it for volume registration). Each cell
// has an extract task (phase 0, id = y*W + x) and a process task (phase 1,
// id = W*H + y*W + x).
//
// An extract task emits one payload kept by its own process task plus one
// payload per existing neighbor (distinct data per direction, e.g. the
// facing overlap region). A process task receives its own extract payload
// first, then the payloads of its West, East, North, South neighbors (those
// that exist), and emits one sink output.
type Neighbor2D struct {
	w, h int
}

// NewNeighbor2D returns a neighbor dataflow over a w x h cell grid.
func NewNeighbor2D(w, h int) (*Neighbor2D, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("graphs: neighbor grid must be at least 1x1, got %dx%d", w, h)
	}
	return &Neighbor2D{w: w, h: h}, nil
}

// Width returns the number of grid columns.
func (g *Neighbor2D) Width() int { return g.w }

// Height returns the number of grid rows.
func (g *Neighbor2D) Height() int { return g.h }

// Cells returns the number of grid cells.
func (g *Neighbor2D) Cells() int { return g.w * g.h }

// Size implements core.TaskGraph.
func (g *Neighbor2D) Size() int { return 2 * g.w * g.h }

// TaskIds implements core.TaskGraph.
func (g *Neighbor2D) TaskIds() []core.TaskId { return core.ContiguousIds(g.Size()) }

// Callbacks implements core.TaskGraph.
func (g *Neighbor2D) Callbacks() []core.CallbackId {
	return []core.CallbackId{NeighborExtractCB, NeighborProcessCB}
}

// ExtractId returns the phase-0 task id of cell (x, y).
func (g *Neighbor2D) ExtractId(x, y int) core.TaskId { return core.TaskId(y*g.w + x) }

// ProcessId returns the phase-1 task id of cell (x, y).
func (g *Neighbor2D) ProcessId(x, y int) core.TaskId {
	return core.TaskId(g.w*g.h + y*g.w + x)
}

// CellOf returns the grid coordinates and phase of a task id.
func (g *Neighbor2D) CellOf(id core.TaskId) (x, y, phase int) {
	i := int(id)
	if i >= g.w*g.h {
		phase = 1
		i -= g.w * g.h
	}
	return i % g.w, i / g.w, phase
}

// grid is the cell grid as a one-cell-deep Neighbor3D: the same ids, and
// Down and Up never exist, so the same neighbors in the same slot order.
// It writes the 2-D tasks.
func (g *Neighbor2D) grid() *Neighbor3D { return &Neighbor3D{w: g.w, h: g.h, d: 1} }

// NeighborDirs returns the directions of the existing neighbors of cell
// (x, y) in canonical slot order: the i-th entry corresponds to extract
// output slot i+1 and to process input slot i+1.
func (g *Neighbor2D) NeighborDirs(x, y int) []Direction {
	var dirs []Direction
	for _, d := range g.grid().NeighborDirs(x, y, 0) {
		dirs = append(dirs, Direction(d))
	}
	return dirs
}

// ExtractSlot returns the output-slot index of an extract task that carries
// the payload destined for the neighbor in direction dir (slot 0 is always
// the cell's own process task). ok is false when that neighbor does not
// exist.
func (g *Neighbor2D) ExtractSlot(x, y int, dir Direction) (slot int, ok bool) {
	for i, d := range g.NeighborDirs(x, y) {
		if d == dir {
			return i + 1, true
		}
	}
	return 0, false
}

// Task implements core.TaskGraph.
func (g *Neighbor2D) Task(id core.TaskId) (core.Task, bool) { return g.grid().Task(id) }

// WritePlan implements core.PlanSource.
func (g *Neighbor2D) WritePlan(w *core.PlanWriter) { g.grid().WritePlan(w) }

var _ core.PlanSource = (*Neighbor2D)(nil)

// Callback slots of a Gather, in the order returned by Callbacks().
const (
	// GatherLeafCB runs at every leaf.
	GatherLeafCB core.CallbackId = iota
	// GatherRootCB runs at the root, which receives all leaf outputs in
	// leaf order and emits the sink output.
	GatherRootCB
)

// Gather is a flat, single-level gather: n leaves each take one external
// input and send one output to a root task that emits the sink output. It
// is the degenerate valence-n reduction and is handy for collecting
// per-block statistics.
type Gather struct {
	n int
}

// NewGather returns a gather over n leaves.
func NewGather(n int) (*Gather, error) {
	if n < 1 {
		return nil, fmt.Errorf("graphs: gather needs at least one leaf, got %d", n)
	}
	return &Gather{n: n}, nil
}

// Leafs returns the number of leaves.
func (g *Gather) Leafs() int { return g.n }

// Root returns the id of the root task.
func (g *Gather) Root() core.TaskId { return core.TaskId(g.n) }

// LeafIds returns the leaf task ids, 0..n-1.
func (g *Gather) LeafIds() []core.TaskId { return core.ContiguousIds(g.n) }

// Size implements core.TaskGraph.
func (g *Gather) Size() int { return g.n + 1 }

// TaskIds implements core.TaskGraph.
func (g *Gather) TaskIds() []core.TaskId { return core.ContiguousIds(g.n + 1) }

// Callbacks implements core.TaskGraph.
func (g *Gather) Callbacks() []core.CallbackId {
	return []core.CallbackId{GatherLeafCB, GatherRootCB}
}

// write is the gather's edge rule, writing the task with the given id:
// each leaf takes one external input and sends to the root, which takes
// every leaf's output in leaf order and emits one sink.
func (g *Gather) write(w *core.PlanWriter, id core.TaskId) {
	if int(id) < g.n {
		w.Task(id, GatherLeafCB, core.ExternalInput)
		w.Slot(g.Root())
		return
	}
	var buf [8]core.TaskId
	w.Task(id, GatherRootCB, span(buf[:0], 0, g.n)...)
	w.Slot()
}

// Task implements core.TaskGraph.
func (g *Gather) Task(id core.TaskId) (core.Task, bool) {
	if id > g.Root() {
		return core.Task{}, false
	}
	var w core.PlanWriter
	g.write(&w, id)
	return w.Written(), true
}

// WritePlan implements core.PlanSource.
func (g *Gather) WritePlan(w *core.PlanWriter) {
	w.Grow(g.n+1, 2*g.n, g.n+1, g.n)
	for id := range g.Root() + 1 {
		g.write(w, id)
	}
}

var _ core.PlanSource = (*Gather)(nil)
