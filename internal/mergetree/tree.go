// Package mergetree implements the paper's first use case (§V-A): parallel
// segmented merge trees for topological feature extraction, after Landge et
// al. (SC'14). The algorithm computes, for a block-decomposed scalar field,
// the global merge tree of the superlevel sets and a segmentation that
// labels every vertex above a threshold with the maximum of its connected
// component — the "ignition regions" of Fig. 4.
//
// The distributed dataflow (Fig. 5) combines a k-way reduction of boundary
// trees (join tasks) with broadcast-like relay overlays that fan augmented
// boundary trees back out to per-block correction tasks, followed by a
// final segmentation task per block.
package mergetree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// NoNode marks the absence of a parent (tree roots).
const NoNode = ^uint64(0)

// Tree is a merge tree (join tree of superlevel sets) over vertices with
// globally unique ids. Every node stores its scalar value and a parent arc
// toward the next lower node of its component; roots have no parent.
//
// The total order used everywhere is (value, id) descending, which breaks
// ties deterministically across blocks and runtimes.
type Tree struct {
	value  map[uint64]float32
	parent map[uint64]uint64
}

// NewTree returns an empty tree.
func NewTree() *Tree {
	return &Tree{value: make(map[uint64]float32), parent: make(map[uint64]uint64)}
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.value) }

// Value returns a node's scalar value.
func (t *Tree) Value(id uint64) (float32, bool) {
	v, ok := t.value[id]
	return v, ok
}

// Parent returns a node's parent, or NoNode for roots and unknown ids.
func (t *Tree) Parent(id uint64) uint64 {
	p, ok := t.parent[id]
	if !ok {
		return NoNode
	}
	return p
}

// Ids returns all node ids in ascending order.
func (t *Tree) Ids() []uint64 {
	ids := make([]uint64, 0, len(t.value))
	for id := range t.value {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// above reports whether (va, a) comes before (vb, b) in the sweep order:
// higher value first, ties broken toward higher id.
func above(va float32, a uint64, vb float32, b uint64) bool {
	if va != vb {
		return va > vb
	}
	return a > b
}

// unionFind is a union-find over node ids with path compression. When the
// id set is (nearly) contiguous — as vertex ids of a data.Decomposition
// block are — a dense slice indexed by id-base backs the parent pointers;
// for sparse id sets (merged boundary trees spanning distant blocks) it
// falls back to a map. Both representations implement identical semantics;
// only makeSet ids may be passed to find/union.
type unionFind struct {
	base   uint64
	dense  []uint64          // parent of id (base+i) at dense[i]; nil when map-backed
	parent map[uint64]uint64 // sparse fallback
}

// unionFindDenseMax bounds the dense allocation (entries); beyond it even a
// contiguous id range uses the map to keep the sweep's footprint sane.
const unionFindDenseMax = 1 << 22

func newUnionFind() *unionFind { return &unionFind{parent: make(map[uint64]uint64)} }

// newUnionFindSpan sizes a union-find for count ids within [lo, hi]: a
// dense slice when the span wastes at most 4x the occupied entries, the map
// otherwise.
func newUnionFindSpan(lo, hi uint64, count int) *unionFind {
	if count > 0 && hi >= lo {
		span := hi - lo + 1
		if span <= uint64(count)*4 && span <= unionFindDenseMax {
			return &unionFind{base: lo, dense: make([]uint64, span)}
		}
	}
	return newUnionFind()
}

func (u *unionFind) makeSet(x uint64) {
	if u.dense != nil {
		// Stored biased by +1 so the zero value means "not in any set".
		u.dense[x-u.base] = x - u.base + 1
		return
	}
	u.parent[x] = x
}

func (u *unionFind) find(x uint64) uint64 {
	if u.dense != nil {
		i := x - u.base
		for {
			p := u.dense[i] - 1
			if p == i {
				return i + u.base
			}
			g := u.dense[p] // grandparent, biased
			u.dense[i] = g
			i = g - 1
		}
	}
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b uint64) uint64 {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.dense != nil {
		u.dense[rb-u.base] = ra - u.base + 1
	} else {
		u.parent[rb] = ra
	}
	return ra
}

// compute runs the merge-tree sweep over an arbitrary graph: nodes with
// values and an adjacency function (returning neighbors restricted to the
// node set). Vertices are processed in descending (value, id) order; each
// time a vertex touches existing components, the current lowest node of
// every touched component gains the vertex as its parent arc, producing the
// fully augmented merge tree (every vertex appears, with a parent arc to
// the next lower node of its component).
func compute(values map[uint64]float32, adj func(uint64) []uint64) *Tree {
	order := make([]uint64, 0, len(values))
	for id := range values {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool {
		return above(values[order[i]], order[i], values[order[j]], order[j])
	})

	t := NewTree()
	var lo, hi uint64
	for i, id := range order {
		if i == 0 || id < lo {
			lo = id
		}
		if i == 0 || id > hi {
			hi = id
		}
	}
	uf := newUnionFindSpan(lo, hi, len(order))
	lowest := make(map[uint64]uint64, len(values)) // component root -> lowest node
	processed := make(map[uint64]bool, len(values))

	for _, v := range order {
		t.value[v] = values[v]
		uf.makeSet(v)
		lowest[v] = v
		for _, u := range adj(v) {
			if !processed[u] {
				continue
			}
			ru, rv := uf.find(u), uf.find(v)
			if ru == rv {
				continue
			}
			// The touched component's chain continues at v.
			t.parent[lowest[ru]] = v
			r := uf.union(rv, ru)
			lowest[r] = v
		}
		processed[v] = true
	}
	return t
}

// Merge returns the merge tree of the union of the given trees' arc sets.
// Joining boundary trees this way is the paper's join task: the merge tree
// of a union of domains equals the merge tree computed over the union of
// the domains' (augmented) merge tree arcs, because merge trees preserve
// superlevel-set connectivity.
func Merge(trees ...*Tree) *Tree {
	values := make(map[uint64]float32)
	adj := make(map[uint64][]uint64)
	addEdge := func(a, b uint64) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, tr := range trees {
		for id, v := range tr.value {
			values[id] = v
		}
		for c, p := range tr.parent {
			addEdge(c, p)
		}
	}
	return compute(values, func(id uint64) []uint64 { return adj[id] })
}

// childCounts returns the number of tree children (incoming arcs) per node.
func (t *Tree) childCounts() map[uint64]int {
	n := make(map[uint64]int, len(t.value))
	for _, p := range t.parent {
		n[p]++
	}
	return n
}

// Reduce contracts the tree to its critical nodes — leaves (maxima), merge
// saddles (nodes with two or more children) and roots — plus every node for
// which keep returns true (typically block-boundary vertices). Parent arcs
// of kept nodes jump to the nearest kept ancestor. The result is the merge
// tree restricted to the kept node set; it is what join tasks exchange as
// "boundary trees".
func (t *Tree) Reduce(keep func(id uint64) bool) *Tree {
	children := t.childCounts()
	kept := make(map[uint64]bool, len(t.value))
	for id := range t.value {
		if children[id] == 0 || children[id] >= 2 {
			kept[id] = true // maximum or saddle
			continue
		}
		if _, hasParent := t.parent[id]; !hasParent {
			kept[id] = true // root
			continue
		}
		if keep != nil && keep(id) {
			kept[id] = true
		}
	}
	out := NewTree()
	for id := range kept {
		out.value[id] = t.value[id]
		p, ok := t.parent[id]
		for ok && !kept[p] {
			p, ok = t.parent[p]
		}
		if ok {
			out.parent[id] = p
		}
	}
	return out
}

// Segment labels every node with value >= threshold with the representative
// of its superlevel-set component at that threshold: the component's
// highest node in sweep order. Nodes below the threshold are absent from
// the result.
func (t *Tree) Segment(threshold float32) map[uint64]uint64 {
	var lo, hi uint64
	count := 0
	for id, v := range t.value {
		if v < threshold {
			continue
		}
		if count == 0 || id < lo {
			lo = id
		}
		if count == 0 || id > hi {
			hi = id
		}
		count++
	}
	uf := newUnionFindSpan(lo, hi, count)
	for id, v := range t.value {
		if v >= threshold {
			uf.makeSet(id)
		}
	}
	for c, p := range t.parent {
		if t.value[c] >= threshold && t.value[p] >= threshold {
			uf.union(c, p)
		}
	}
	// Representative per component root: the max node.
	rep := make(map[uint64]uint64)
	for id, v := range t.value {
		if v < threshold {
			continue
		}
		r := uf.find(id)
		cur, ok := rep[r]
		if !ok || above(v, id, t.value[cur], cur) {
			rep[r] = id
		}
	}
	labels := make(map[uint64]uint64, count)
	for id, v := range t.value {
		if v >= threshold {
			labels[id] = rep[uf.find(id)]
		}
	}
	return labels
}

// Features returns the distinct segment representatives at a threshold, in
// ascending order: one entry per connected feature.
func (t *Tree) Features(threshold float32) []uint64 {
	labels := t.Segment(threshold)
	seen := make(map[uint64]bool)
	for _, r := range labels {
		seen[r] = true
	}
	out := make([]uint64, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Serialize encodes the tree deterministically: node count, then per node
// (ascending id) the id, value bits and parent id (NoNode for roots).
func (t *Tree) Serialize() []byte {
	le := binary.LittleEndian
	ids := t.Ids()
	buf := make([]byte, 8+20*len(ids))
	le.PutUint64(buf[0:], uint64(len(ids)))
	off := 8
	for _, id := range ids {
		le.PutUint64(buf[off:], id)
		le.PutUint32(buf[off+8:], math.Float32bits(t.value[id]))
		le.PutUint64(buf[off+12:], t.Parent(id))
		off += 20
	}
	return buf
}

// Deserialize decodes a tree encoded by Serialize.
func Deserialize(b []byte) (*Tree, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("mergetree: tree buffer too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	n := int(le.Uint64(b[0:]))
	if len(b) != 8+20*n {
		return nil, fmt.Errorf("mergetree: tree buffer size %d does not match %d nodes", len(b), n)
	}
	t := NewTree()
	off := 8
	for i := 0; i < n; i++ {
		id := le.Uint64(b[off:])
		v := math.Float32frombits(le.Uint32(b[off+8:]))
		p := le.Uint64(b[off+12:])
		t.value[id] = v
		if p != NoNode {
			t.parent[id] = p
		}
		off += 20
	}
	return t, nil
}

// Equal reports whether two trees have identical node and arc sets.
func (t *Tree) Equal(o *Tree) bool {
	if len(t.value) != len(o.value) || len(t.parent) != len(o.parent) {
		return false
	}
	for id, v := range t.value {
		if ov, ok := o.value[id]; !ok || ov != v {
			return false
		}
	}
	for c, p := range t.parent {
		if op, ok := o.parent[c]; !ok || op != p {
			return false
		}
	}
	return true
}
