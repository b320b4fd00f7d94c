package graphs

import (
	"fmt"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Direction3D indexes the 3-D neighbor order used for output and input
// slots: West, East, North, South, Down, Up.
type Direction3D int

// Neighbor directions in canonical slot order.
const (
	West3D Direction3D = iota
	East3D
	North3D
	South3D
	Down3D
	Up3D
)

var dirOffsets3D = [6][3]int{
	{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1},
}

// Neighbor3D is the three-dimensional generalization of Neighbor2D: a
// two-phase halo-exchange dataflow over a W x H x D grid of cells with
// 6-connectivity. Extract tasks occupy ids [0, W*H*D); process tasks the
// next W*H*D ids.
type Neighbor3D struct {
	w, h, d int
}

// NewNeighbor3D returns a neighbor dataflow over a w x h x d cell grid.
func NewNeighbor3D(w, h, d int) (*Neighbor3D, error) {
	if w < 1 || h < 1 || d < 1 {
		return nil, fmt.Errorf("graphs: neighbor grid must be at least 1x1x1, got %dx%dx%d", w, h, d)
	}
	return &Neighbor3D{w: w, h: h, d: d}, nil
}

// Cells returns the number of grid cells.
func (g *Neighbor3D) Cells() int { return g.w * g.h * g.d }

// Size implements core.TaskGraph.
func (g *Neighbor3D) Size() int { return 2 * g.Cells() }

// TaskIds implements core.TaskGraph.
func (g *Neighbor3D) TaskIds() []core.TaskId { return core.ContiguousIds(g.Size()) }

// Callbacks implements core.TaskGraph. The callback ids are shared with
// Neighbor2D: NeighborExtractCB and NeighborProcessCB.
func (g *Neighbor3D) Callbacks() []core.CallbackId {
	return []core.CallbackId{NeighborExtractCB, NeighborProcessCB}
}

// ExtractId returns the phase-0 task id of cell (x, y, z).
func (g *Neighbor3D) ExtractId(x, y, z int) core.TaskId {
	return core.TaskId((z*g.h+y)*g.w + x)
}

// ProcessId returns the phase-1 task id of cell (x, y, z).
func (g *Neighbor3D) ProcessId(x, y, z int) core.TaskId {
	return core.TaskId(g.Cells() + (z*g.h+y)*g.w + x)
}

// CellOf returns the grid coordinates and phase of a task id.
func (g *Neighbor3D) CellOf(id core.TaskId) (x, y, z, phase int) {
	i := int(id)
	if i >= g.Cells() {
		phase = 1
		i -= g.Cells()
	}
	x = i % g.w
	y = (i / g.w) % g.h
	z = i / (g.w * g.h)
	return
}

// inside reports whether (x, y, z) is a cell of the grid.
func (g *Neighbor3D) inside(x, y, z int) bool {
	return x >= 0 && x < g.w && y >= 0 && y < g.h && z >= 0 && z < g.d
}

// NeighborDirs returns the directions of the existing neighbors of cell
// (x, y, z) in canonical slot order: the i-th entry corresponds to extract
// output slot i+1 and process input slot i+1.
func (g *Neighbor3D) NeighborDirs(x, y, z int) []Direction3D {
	var dirs []Direction3D
	for d, off := range dirOffsets3D {
		if g.inside(x+off[0], y+off[1], z+off[2]) {
			dirs = append(dirs, Direction3D(d))
		}
	}
	return dirs
}

// around appends to buf the ids, in the given phase, of cell (x, y, z) and
// then of its existing neighbors in canonical order.
func (g *Neighbor3D) around(buf []core.TaskId, x, y, z, phase int) []core.TaskId {
	base := core.TaskId(phase * g.Cells())
	buf = append(buf, base+g.ExtractId(x, y, z))
	for _, off := range dirOffsets3D {
		if nx, ny, nz := x+off[0], y+off[1], z+off[2]; g.inside(nx, ny, nz) {
			buf = append(buf, base+g.ExtractId(nx, ny, nz))
		}
	}
	return buf
}

// write is the halo exchange's edge rule, writing the task with the given
// id: an extract task takes one external input and sends one slot to each
// process task around its cell, its own first; a process task takes one
// input from each extract task around its cell, its own first, and emits
// one sink.
func (g *Neighbor3D) write(w *core.PlanWriter, id core.TaskId) {
	x, y, z, phase := g.CellOf(id)
	var buf [1 + len(dirOffsets3D)]core.TaskId
	if phase == 0 {
		w.Task(id, NeighborExtractCB, core.ExternalInput)
		for _, c := range g.around(buf[:0], x, y, z, 1) {
			w.Slot(c)
		}
		return
	}
	w.Task(id, NeighborProcessCB, g.around(buf[:0], x, y, z, 0)...)
	w.Slot()
}

// Task implements core.TaskGraph.
func (g *Neighbor3D) Task(id core.TaskId) (core.Task, bool) {
	if id >= core.TaskId(g.Size()) {
		return core.Task{}, false
	}
	var w core.PlanWriter
	g.write(&w, id)
	return w.Written(), true
}

// WritePlan implements core.PlanSource.
func (g *Neighbor3D) WritePlan(w *core.PlanWriter) {
	// pairs counts the ordered neighbor pairs: each is one edge, one extract
	// output slot and one process input on top of each cell's own.
	c := g.Cells()
	pairs := 2 * ((g.w-1)*g.h*g.d + g.w*(g.h-1)*g.d + g.w*g.h*(g.d-1))
	w.Grow(2*c, 2*c+pairs, 2*c+pairs, c+pairs)
	for id := range core.TaskId(g.Size()) {
		g.write(w, id)
	}
}

var _ core.PlanSource = (*Neighbor3D)(nil)
