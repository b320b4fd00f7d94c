package graphs

import (
	"fmt"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Callback slots of a BinarySwap, in the order returned by Callbacks().
const (
	// SwapLeafCB runs at round 0 (e.g. rendering the local block). A leaf
	// emits two outputs: the half it keeps and the half it sends to its
	// round-0 partner.
	SwapLeafCB core.CallbackId = iota
	// SwapMidCB runs at intermediate rounds: composite the two incoming
	// halves and split the result for the next exchange.
	SwapMidCB
	// SwapRootCB runs at the final round: composite the two halves into the
	// finished tile and emit it on the sink slot (e.g. write it to disk).
	SwapRootCB
)

// BinarySwap is the binary-swap compositing dataflow (Ma et al. 1994,
// Fig. 7 of the paper) over n = 2^d participants. Unlike a reduction, the
// number of active tasks stays constant: in every round each task pairs
// with a partner, keeps half of its current image and swaps the other half.
// After d rounds each of the n final tasks owns one tile of the result.
//
// Task ids are round-major: task (r, i) has id r*n + i for rounds
// r = 0 (leaves) .. d (final tiles). In the transition from round r to
// round r+1, task i exchanges with partner i XOR 2^r.
type BinarySwap struct {
	n int // participants per round
	d int // swap rounds (log2 n)
}

// NewBinarySwap returns a binary-swap dataflow over n participants; n must
// be a power of two.
func NewBinarySwap(n int) (*BinarySwap, error) {
	if n < 1 {
		return nil, fmt.Errorf("graphs: binary swap needs at least one participant, got %d", n)
	}
	d, p := 0, 1
	for p < n {
		p *= 2
		d++
	}
	if p != n {
		return nil, fmt.Errorf("graphs: binary swap participant count %d is not a power of two", n)
	}
	return &BinarySwap{n: n, d: d}, nil
}

// Participants returns the number of tasks per round.
func (g *BinarySwap) Participants() int { return g.n }

// Rounds returns the number of swap rounds (log2 of the participant count).
func (g *BinarySwap) Rounds() int { return g.d }

// Size implements core.TaskGraph.
func (g *BinarySwap) Size() int { return (g.d + 1) * g.n }

// TaskIds implements core.TaskGraph.
func (g *BinarySwap) TaskIds() []core.TaskId { return core.ContiguousIds(g.Size()) }

// Callbacks implements core.TaskGraph.
func (g *BinarySwap) Callbacks() []core.CallbackId {
	return []core.CallbackId{SwapLeafCB, SwapMidCB, SwapRootCB}
}

// LeafIds returns the ids of the round-0 tasks in block order.
func (g *BinarySwap) LeafIds() []core.TaskId { return core.ContiguousIds(g.n) }

// TileIds returns the ids of the final-round tasks; task i owns tile i of
// the composited image.
func (g *BinarySwap) TileIds() []core.TaskId {
	ids := make([]core.TaskId, g.n)
	for i := range ids {
		ids[i] = core.TaskId(g.d*g.n + i)
	}
	return ids
}

// RoundOf returns the round and participant index of a task id.
func (g *BinarySwap) RoundOf(id core.TaskId) (round, index int) {
	return int(id) / g.n, int(id) % g.n
}

// write is the exchange's edge rule, writing the task with the given id:
// round 0 takes one external input and any later round its own
// predecessor's kept half and its partner's swapped half; each round but
// the last keeps one half for its successor and sends the other to the
// next round's partner, and the last emits its tile on a sink.
func (g *BinarySwap) write(w *core.PlanWriter, id core.TaskId) {
	r, i := g.RoundOf(id)
	cb := SwapMidCB
	switch {
	case r == g.d: // a single participant renders and writes in one task
		cb = SwapRootCB
	case r == 0:
		cb = SwapLeafCB
	}
	if r == 0 {
		w.Task(id, cb, core.ExternalInput)
	} else {
		// The partner bit of the transition r-1 -> r is r-1.
		prev := core.TaskId((r - 1) * g.n)
		w.Task(id, cb, prev+core.TaskId(i), prev+core.TaskId(i^(1<<(r-1))))
	}
	if r == g.d {
		w.Slot()
		return
	}
	next := core.TaskId((r + 1) * g.n)
	w.Slot(next + core.TaskId(i))        // half we keep
	w.Slot(next + core.TaskId(i^(1<<r))) // half we send
}

// Task implements core.TaskGraph.
func (g *BinarySwap) Task(id core.TaskId) (core.Task, bool) {
	if id >= core.TaskId(g.Size()) {
		return core.Task{}, false
	}
	var w core.PlanWriter
	g.write(&w, id)
	return w.Written(), true
}

// WritePlan implements core.PlanSource.
func (g *BinarySwap) WritePlan(w *core.PlanWriter) {
	// Each of the d exchanges is 2n edges, each an input and a one-edge
	// output slot; round 0 adds n external inputs, the last round n sinks.
	w.Grow(g.Size(), g.n+2*g.d*g.n, g.n+2*g.d*g.n, 2*g.d*g.n)
	for id := range core.TaskId(g.Size()) {
		g.write(w, id)
	}
}

var _ core.PlanSource = (*BinarySwap)(nil)
