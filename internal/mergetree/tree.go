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
	"slices"
	"sync"
)

// NoNode marks the absence of a parent (tree roots).
const NoNode = ^uint64(0)

// Tree is a merge tree (join tree of superlevel sets) over vertices with
// globally unique ids. Every node stores its scalar value and a parent arc
// toward the next lower node of its component; roots have no parent.
//
// The nodes are three parallel arrays in ascending id order and an arc is
// an index into them, so every kernel is a sweep over dense indices. The
// total order used everywhere is (value, id) descending, which breaks ties
// deterministically across blocks and runtimes; as ids ascend with the
// index, a tie goes to the higher index.
type Tree struct {
	ids []uint64
	val []float32
	par []int32 // parent index, -1 for roots
}

// Immutable implements core.Immutable: every operation builds a new tree,
// so one tree may go to every consumer on a rank.
func (*Tree) Immutable() {}

// work is one kernel call's pooled scratch, reused instead of zeroing fresh
// arrays. A tree's own arrays never come from it: trees are shared.
type work struct {
	at, to, src, dst, off, adj, uf, order, tmp []int32
	keys, tkeys                                []uint32
}

var works = sync.Pool{New: func() any { return new(work) }}

// grow resizes *s to n, reallocating only when short, and returns it.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{} }

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.ids) }

// index returns the index of a node id, or -1 when it is not a node.
func (t *Tree) index(id uint64) int32 {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		return int32(i)
	}
	return -1
}

// Value returns a node's scalar value.
func (t *Tree) Value(id uint64) (float32, bool) {
	if i := t.index(id); i >= 0 {
		return t.val[i], true
	}
	return 0, false
}

// Parent returns a node's parent, or NoNode for roots and unknown ids.
func (t *Tree) Parent(id uint64) uint64 {
	if i := t.index(id); i >= 0 {
		return t.parentId(i)
	}
	return NoNode
}

// parentId returns the id of node i's parent, or NoNode for a root.
func (t *Tree) parentId(i int32) uint64 {
	if p := t.par[i]; p >= 0 {
		return t.ids[p]
	}
	return NoNode
}

// Ids returns all node ids in ascending order.
func (t *Tree) Ids() []uint64 { return slices.Clone(t.ids) }

// above reports whether node a comes before node b in the sweep order:
// higher value first, ties broken toward the higher id.
func (t *Tree) above(a, b int32) bool {
	if t.val[a] != t.val[b] {
		return t.val[a] > t.val[b]
	}
	return a > b
}

// sweepOrder returns the node indices in sweep order. It radix-sorts them
// on their values' bits, mapped so that ascending keys are descending
// values: one stable pass per key byte, lowest first, skipping a byte all
// keys share. Starting from descending indices leaves ties in descending
// index order. Keys travel with their indices; one sweep counts all bytes.
// The result is w's scratch.
func sweepOrder(val []float32, w *work) []int32 {
	n := len(val)
	keys, tkeys, order, tmp := grow(&w.keys, n), grow(&w.tkeys, n), grow(&w.order, n), grow(&w.tmp, n)
	var at [4][257]int32 // at[p][d+1] counts byte d of pass p, then at[p][d] is where it goes
	for i, v := range val {
		if v == 0 {
			v = 0 // -0 ties +0, as in above
		}
		k := math.Float32bits(v)
		if k>>31 == 0 {
			k = ^k &^ (1 << 31)
		}
		keys[n-1-i], order[n-1-i] = k, int32(i)
		at[0][k&0xff+1]++
		at[1][k>>8&0xff+1]++
		at[2][k>>16&0xff+1]++
		at[3][k>>24+1]++
	}
	for p := range at {
		shift := 8 * p
		if n == 0 || at[p][keys[0]>>shift&0xff+1] == int32(n) {
			continue
		}
		c := &at[p]
		for d := 1; d < len(c); d++ {
			c[d] += c[d-1]
		}
		for j, k := range keys {
			d := k >> shift & 0xff
			tmp[c[d]], tkeys[c[d]], c[d] = order[j], k, c[d]+1
		}
		order, tmp, keys, tkeys = tmp, order, tkeys, keys
	}
	return order
}

// find returns the union-find root of x, halving the path on the way.
func find(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// csr builds, in w's scratch, the compressed adjacency over n nodes of the
// arcs src[k] → dst[k]: node i's targets end up in adj[off[i]:off[i+1]], in
// arc order.
func csr(n int, w *work, src, dst []int32) (off, adj []int32) {
	off = grow(&w.off, n+2)
	clear(off)
	for _, a := range src {
		off[a+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	adj = grow(&w.adj, int(off[n+1]))
	for k, a := range src {
		adj[off[a+1]], off[a+1] = dst[k], off[a+1]+1
	}
	return off[:n+1], adj
}

// compute runs the merge-tree sweep over a graph whose nodes are ids (in
// ascending order) with values val, and whose node i neighbours the indices
// adj[off[i]:off[i+1]]. Vertices are processed in descending (value, id)
// order; each time a vertex touches existing components, the current
// lowest node of every touched component gains the vertex as its parent
// arc, producing the fully augmented merge tree (every vertex appears, with
// a parent arc to the next lower node of its component). A component's
// lowest node is always its union-find root, since each vertex becomes the
// root of everything it joins.
func compute(ids []uint64, val []float32, off, adj []int32, w *work) *Tree {
	t := &Tree{ids: ids, val: val, par: make([]int32, len(ids))}
	uf := grow(&w.uf, len(ids)) // -1 until the node is swept
	for i := range uf {
		t.par[i], uf[i] = -1, -1
	}
	for _, v := range sweepOrder(val, w) {
		uf[v] = v
		for _, u := range adj[off[v]:off[v+1]] {
			if uf[u] < 0 {
				continue
			}
			if r := find(uf, u); r != v {
				t.par[r], uf[r] = v, v
			}
		}
	}
	return t
}

// Merge returns the merge tree of the union of the given trees' arc sets.
// Joining boundary trees this way is the paper's join task: the merge tree
// of a union of domains equals the merge tree computed over the union of
// the domains' (augmented) merge tree arcs, because merge trees preserve
// superlevel-set connectivity. A vertex in several trees takes the value
// it has in the last of them.
func Merge(trees ...*Tree) *Tree {
	total := 0
	for _, tr := range trees {
		total += tr.Len()
	}
	ids, val := make([]uint64, 0, total), make([]float32, 0, total)
	w := works.Get().(*work)
	defer works.Put(w)
	// A k-way merge of the sorted id arrays: at[k] is tree k's cursor, and
	// to maps every input node (trees concatenated) to its merged index.
	at, to := grow(&w.at, len(trees)), grow(&w.to, total)
	clear(at)
	for {
		var next uint64
		found := false
		for k, tr := range trees {
			if int(at[k]) < tr.Len() && (!found || tr.ids[at[k]] < next) {
				next, found = tr.ids[at[k]], true
			}
		}
		if !found {
			break
		}
		ids, val = append(ids, next), append(val, 0)
		base := 0
		for k, tr := range trees {
			if int(at[k]) < tr.Len() && tr.ids[at[k]] == next {
				val[len(val)-1], to[base+int(at[k])] = tr.val[at[k]], int32(len(ids)-1)
				at[k]++
			}
			base += tr.Len()
		}
	}
	// Every tree's arcs, in merged indices, both ways.
	src, dst := grow(&w.src, 2*total)[:0], grow(&w.dst, 2*total)[:0]
	base := 0
	for _, tr := range trees {
		for c, p := range tr.par {
			if p >= 0 {
				a, b := to[base+c], to[base+int(p)]
				src, dst = append(src, a, b), append(dst, b, a)
			}
		}
		base += tr.Len()
	}
	off, adj := csr(len(ids), w, src, dst)
	return compute(ids, val, off, adj, w)
}

// Reduce contracts the tree to its critical nodes — leaves (maxima), merge
// saddles (nodes with two or more children) and roots — plus every node for
// which keep returns true (typically block-boundary vertices). Parent arcs
// of kept nodes jump to the nearest kept ancestor. The result is the merge
// tree restricted to the kept node set; it is what join tasks exchange as
// "boundary trees".
func (t *Tree) Reduce(keep func(id uint64) bool) *Tree {
	// to[i] first counts node i's children, then becomes its index in the
	// result, or -1 when it is contracted away.
	w := works.Get().(*work)
	defer works.Put(w)
	to := grow(&w.to, len(t.ids))
	clear(to)
	for _, p := range t.par {
		if p >= 0 {
			to[p]++
		}
	}
	m := int32(0)
	for i, children := range to {
		to[i] = -1
		if children != 1 || t.par[i] < 0 || keep != nil && keep(t.ids[i]) {
			to[i], m = m, m+1
		}
	}
	out := &Tree{ids: make([]uint64, 0, m), val: make([]float32, 0, m), par: make([]int32, 0, m)}
	for i, j := range to {
		if j < 0 {
			continue
		}
		p := t.par[i]
		for p >= 0 && to[p] < 0 {
			p = t.par[p]
		}
		if p >= 0 {
			p = to[p]
		}
		out.ids, out.val, out.par = append(out.ids, t.ids[i]), append(out.val, t.val[i]), append(out.par, p)
	}
	return out
}

// labels returns, per node with value >= threshold, the index of the
// representative of its superlevel-set component at that threshold — the
// component's highest node in sweep order — and -1 for the nodes below.
func (t *Tree) labels(threshold float32) []int32 {
	uf, rep := make([]int32, len(t.ids)), make([]int32, len(t.ids))
	for i := range uf {
		uf[i], rep[i] = int32(i), -1
	}
	for c, p := range t.par {
		if p >= 0 && t.val[c] >= threshold && t.val[p] >= threshold {
			uf[find(uf, int32(c))] = find(uf, p)
		}
	}
	for i := range uf {
		if t.val[i] >= threshold {
			r := find(uf, int32(i))
			uf[i] = r
			if rep[r] < 0 || t.above(int32(i), rep[r]) {
				rep[r] = int32(i)
			}
		}
	}
	// uf[i] is now i's root; it becomes the root's representative.
	for i, r := range uf {
		uf[i] = -1
		if t.val[i] >= threshold {
			uf[i] = rep[r]
		}
	}
	return uf
}

// Segment labels every node with value >= threshold with the representative
// of its superlevel-set component at that threshold: the component's
// highest node in sweep order. Nodes below the threshold are absent from
// the result.
func (t *Tree) Segment(threshold float32) map[uint64]uint64 {
	labels := make(map[uint64]uint64)
	for i, r := range t.labels(threshold) {
		if r >= 0 {
			labels[t.ids[i]] = t.ids[r]
		}
	}
	return labels
}

// Features returns the distinct segment representatives at a threshold, in
// ascending order: one entry per connected feature.
func (t *Tree) Features(threshold float32) []uint64 {
	out := []uint64{}
	for i, r := range t.labels(threshold) {
		if int(r) == i { // a representative labels itself
			out = append(out, t.ids[i])
		}
	}
	return out
}

// Serialize encodes the tree deterministically: node count, then per node
// (ascending id) the id, value bits and parent id (NoNode for roots).
func (t *Tree) Serialize() []byte {
	le := binary.LittleEndian
	buf := le.AppendUint64(make([]byte, 0, 8+20*len(t.ids)), uint64(len(t.ids)))
	for i, id := range t.ids {
		buf = le.AppendUint64(buf, id)
		buf = le.AppendUint32(buf, math.Float32bits(t.val[i]))
		buf = le.AppendUint64(buf, t.parentId(int32(i)))
	}
	return buf
}

// Deserialize decodes a tree encoded by Serialize. It rejects node ids that
// are not strictly ascending and parents that are not nodes, neither of
// which Serialize writes.
func Deserialize(b []byte) (*Tree, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("mergetree: tree buffer too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	n := le.Uint64(b)
	if (len(b)-8)%20 != 0 || uint64(len(b)-8)/20 != n {
		return nil, fmt.Errorf("mergetree: tree buffer size %d does not match %d nodes", len(b), n)
	}
	t := &Tree{ids: make([]uint64, n), val: make([]float32, n), par: make([]int32, n)}
	for i := range t.ids {
		t.ids[i] = le.Uint64(b[8+20*i:])
		t.val[i] = math.Float32frombits(le.Uint32(b[16+20*i:]))
		if i > 0 && t.ids[i] <= t.ids[i-1] {
			return nil, fmt.Errorf("mergetree: tree node %d id %d does not ascend", i, t.ids[i])
		}
	}
	for i := range t.par {
		t.par[i] = -1
		if p := le.Uint64(b[20+20*i:]); p != NoNode {
			if t.par[i] = t.index(p); t.par[i] < 0 {
				return nil, fmt.Errorf("mergetree: tree node %d has parent %d, which is not a node", t.ids[i], p)
			}
		}
	}
	return t, nil
}

// Equal reports whether two trees have identical node and arc sets.
func (t *Tree) Equal(o *Tree) bool {
	return slices.Equal(t.ids, o.ids) && slices.Equal(t.val, o.val) && slices.Equal(t.par, o.par)
}
