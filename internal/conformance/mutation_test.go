package conformance

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
)

// fanOutGraph builds a graph stressing the copy-on-fan-out routing policy:
// two external producers multicast to a middle layer of four tasks, each of
// which multicasts again to two shared sinks. Every internal edge is part of
// a fan-out, so the wire form of each output is shared by several consumers.
//
//	P0 ──[A B C D]           A B C D ──[E F]
//	P1 ──[A B] [C D]         E, F: sinks
func fanOutGraph() *core.ExplicitGraph {
	const (
		p0 core.TaskId = iota
		p1
		a
		b
		c
		d
		e
		f
	)
	mid := []core.TaskId{a, b, c, d}
	tasks := []core.Task{
		{Id: p0, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{mid}},
		{Id: p1, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{a, b}, {c, d}}},
	}
	for _, id := range mid {
		tasks = append(tasks, core.Task{
			Id: id, Callback: 0,
			Incoming: []core.TaskId{p0, p1},
			Outgoing: [][]core.TaskId{{e, f}},
		})
	}
	for _, id := range []core.TaskId{e, f} {
		tasks = append(tasks, core.Task{
			Id: id, Callback: 0,
			Incoming: []core.TaskId{a, b, c, d},
			Outgoing: [][]core.TaskId{{}},
		})
	}
	return core.NewExplicitGraph(tasks)
}

// mutatingCallback digests its inputs, then deliberately scribbles over
// every input buffer in place before returning. A task owns its inputs, so
// the scribbling is legal — and if any two consumers of a fan-out slot were
// handed aliased wire buffers, one consumer's scribble would corrupt the
// bytes another consumer digests, and the sink outputs would diverge from
// the serial reference.
func mutatingCallback(g core.TaskGraph) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		h := sha256.New()
		var idb [8]byte
		binary.LittleEndian.PutUint64(idb[:], uint64(id))
		h.Write(idb[:])
		for _, p := range in {
			w, err := p.Wire()
			if err != nil {
				return nil, err
			}
			h.Write(w)
		}
		for _, p := range in {
			for i := range p.Data {
				p.Data[i] = byte(0xA0) ^ byte(id)
			}
		}
		base := h.Sum(nil)
		t, _ := g.Task(id)
		out := make([]core.Payload, len(t.Outgoing))
		for s := range out {
			buf := make([]byte, len(base)+1)
			copy(buf, base)
			buf[len(base)] = byte(s)
			out[s] = core.Buffer(buf)
		}
		return out, nil
	}
}

// TestFanOutMutationIsolation asserts pooled/shared wire buffers are never
// aliased between consumers: with callbacks that mutate their received
// payloads in place, every controller at every shard count must still match
// the serial reference byte for byte: a difference means a consumer
// observed another consumer's in-place mutation.
func TestFanOutMutationIsolation(t *testing.T) {
	g := fanOutGraph()
	if err := core.Validate(g); err != nil {
		t.Fatal(err)
	}
	cb := mutatingCallback(g)
	for shards := 1; shards <= 4; shards++ {
		ref := checkMatrix(t, fmt.Sprintf("shards%d", shards), g, shards, cb,
			func() map[core.TaskId][]core.Payload { return externalInputsFor(g) })
		if len(ref.Sinks) != 2 {
			t.Fatalf("serial reference produced %d sinks, want 2", len(ref.Sinks))
		}
	}
}
