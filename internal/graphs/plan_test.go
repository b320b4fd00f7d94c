package graphs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
)

// prototype builds one of the seven prototypes from a leaf count and a
// valence (ignored where the shape has none; the neighbor grids read the
// leaf count as their width).
type prototype struct {
	name  string
	build func(leafs, valence int) (core.TaskGraph, error)
}

func graph[G core.TaskGraph](g G, err error) (core.TaskGraph, error) { return g, err }

var prototypes = []prototype{
	{"reduction", func(l, k int) (core.TaskGraph, error) { return graph(NewReduction(l, k)) }},
	{"broadcast", func(l, k int) (core.TaskGraph, error) { return graph(NewBroadcast(l, k)) }},
	{"kwaymerge", func(l, k int) (core.TaskGraph, error) { return graph(NewKWayMerge(l, k)) }},
	{"binaryswap", func(l, _ int) (core.TaskGraph, error) { return graph(NewBinarySwap(l)) }},
	{"gather", func(l, _ int) (core.TaskGraph, error) { return graph(NewGather(l)) }},
	{"neighbor2d", func(l, k int) (core.TaskGraph, error) { return graph(NewNeighbor2D(l, k-1)) }},
	{"neighbor3d", func(l, k int) (core.TaskGraph, error) { return graph(NewNeighbor3D(l, k-1, 5-k)) }},
}

// shapes are the (leafs, valence) pairs every prototype is checked at: the
// degenerate single leaf, exact powers of 2, 3 and 4, sizes no power fits
// (valid for the gather and the grids only) and the graph-scale 4096.
func shapes() [][2]int {
	var out [][2]int
	for k := 2; k <= 4; k++ {
		for l := 1; l <= 4096; l *= k {
			out = append(out, [2]int{l, k})
		}
	}
	for _, l := range []int{3, 5, 7, 12} {
		out = append(out, [2]int{l, 3})
	}
	return out
}

// encode appends a Task answer to b, word by word; a nil list is written
// as length -1, so it never encodes like an empty one.
func encode(b []byte, ok bool, t core.Task) []byte {
	word := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	list := func(isNil bool, n int) {
		if isNil {
			n = -1
		}
		word(int64(n))
	}
	if !ok {
		return append(b, 0)
	}
	word(int64(t.Id))
	word(int64(t.Callback))
	list(t.Incoming == nil, len(t.Incoming))
	for _, id := range t.Incoming {
		word(int64(id))
	}
	list(t.Outgoing == nil, len(t.Outgoing))
	for _, slot := range t.Outgoing {
		list(slot == nil, len(slot))
		for _, id := range slot {
			word(int64(id))
		}
	}
	list(t.Cond == nil, len(t.Cond))
	for _, c := range t.Cond {
		word(int64(c))
	}
	word(int64(t.Branches))
	return b
}

// TestTaskAnswersPinned pins every Task(id) answer of every prototype at
// every shape, nil-ness included, and the answers for two ids outside the
// graph, to digests computed by the per-prototype Task rules of commit
// 23a3d36.
func TestTaskAnswersPinned(t *testing.T) {
	want := map[string]string{
		"reduction":  "2c1b828c5bf8863cc8c8d2e4698db3fbbc8b551e5d29257006ba2ed1a443ef54",
		"broadcast":  "18a9707cd74c06a491cc32664e86afcc041069999203257c8f8f78ab26ee922d",
		"kwaymerge":  "76b469623dd508f3076c1fae67e3764e45b430bae5a79b84ed95edd07bb6c9c6",
		"binaryswap": "e418f7eaa20b35490c5ce998af1d6d4d92189b47c4989a3eaa92ac1d0bbbe804",
		"gather":     "5c18f3b843d56812e1922a464e706658d7b9d389bf62a04a71c90ce3153a332b",
		"neighbor2d": "da53127a0bd04a042406e89a8be9cbb4d41673e5db35309db8c2cf6d225cd09e",
		"neighbor3d": "1eb1eb6e30204abd091986bf413990427f702813af5fb99cb60a5dab2891ab17",
	}
	for _, p := range prototypes {
		h := sha256.New()
		var b []byte
		for _, s := range shapes() {
			g, err := p.build(s[0], s[1])
			if err != nil {
				continue
			}
			b = binary.LittleEndian.AppendUint64(b[:0], uint64(s[0]<<8|s[1]))
			for _, id := range append(g.TaskIds(), core.TaskId(g.Size()), core.ExternalInput) {
				task, ok := g.Task(id)
				b = encode(b, ok, task)
			}
			h.Write(b)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[p.name] {
			t.Errorf("%s: Task answers digest %s, pinned %s", p.name, got, want[p.name])
		}
	}
}

// hidden hides every method but the TaskGraph ones, so Compile walks Task.
type hidden struct{ core.TaskGraph }

// samePlan compiles g as it writes itself and through the generic Task walk,
// and reports the first way the two plans differ.
func samePlan(g core.TaskGraph) error {
	if _, ok := g.(core.PlanSource); !ok {
		return fmt.Errorf("%T does not write its own plan", g)
	}
	p, err := core.Compile(g)
	if err != nil {
		return fmt.Errorf("written: %v", err)
	}
	q, err := core.Compile(hidden{g})
	if err != nil {
		return fmt.Errorf("walked: %v", err)
	}
	if !reflect.DeepEqual(p.TaskIds(), q.TaskIds()) || !reflect.DeepEqual(p.Callbacks(), q.Callbacks()) {
		return fmt.Errorf("ids or callbacks differ")
	}
	var ea, eb []byte
	for i, id := range p.TaskIds() {
		a, b := p.TaskAt(i), q.TaskAt(i)
		if ea, eb = encode(ea[:0], true, a), encode(eb[:0], true, b); !bytes.Equal(ea, eb) {
			return fmt.Errorf("task %d: written %#v, walked %#v", id, a, b)
		}
		if !reflect.DeepEqual(p.Consumers(i), q.Consumers(i)) || p.Externals(i) != q.Externals(i) ||
			p.Depth(id) != q.Depth(id) || p.Height(id) != q.Height(id) {
			return fmt.Errorf("task %d: consumers, externals, depth or height differ", id)
		}
	}
	if p.Max() != q.Max() || !reflect.DeepEqual(p.Levels(), q.Levels()) {
		return fmt.Errorf("critical path or levels differ")
	}
	cbs := g.Callbacks()
	if a, b := core.GraphFingerprint(p, cbs), core.GraphFingerprint(q, cbs); a != b {
		return fmt.Errorf("fingerprint %s, walked %s", a, b)
	}
	return nil
}

// TestPlanWriteMatchesWalk: every prototype, at every shape, writes the plan
// the generic walk of its Task answers compiles.
func TestPlanWriteMatchesWalk(t *testing.T) {
	for _, p := range prototypes {
		for _, s := range shapes() {
			g, err := p.build(s[0], s[1])
			if err != nil {
				continue
			}
			if err := samePlan(g); err != nil {
				t.Errorf("%s(%d, %d): %v", p.name, s[0], s[1], err)
			}
		}
	}
}

// FuzzPlanWrite: any prototype at any valid shape writes the plan its Task
// walk compiles.
func FuzzPlanWrite(f *testing.F) {
	for i := range prototypes {
		for _, s := range shapes() {
			if s[0] <= 256 {
				f.Add(uint8(i), uint16(s[0]), uint8(s[1]))
			}
		}
	}
	f.Fuzz(func(t *testing.T, proto uint8, leafs uint16, valence uint8) {
		p := prototypes[int(proto)%len(prototypes)]
		g, err := p.build(int(leafs)%4097, int(valence)%8)
		if err != nil {
			return
		}
		if err := samePlan(g); err != nil {
			t.Fatalf("%s(%d, %d): %v", p.name, int(leafs)%4097, int(valence)%8, err)
		}
	})
}
