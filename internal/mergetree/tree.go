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
	"math/bits"
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
	at, ends, to, off, adj, uf, low, order, tmp, memo, seen []int32
	keys, tkeys                                             []uint32
	rank                                                    []uint64
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

// sweepKey maps a value to a key that ascends as the value descends, with
// -0 tied to +0 as in above; it orders every bit pattern, NaNs included.
func sweepKey(v float32) uint32 {
	if v == 0 {
		v = 0
	}
	k := math.Float32bits(v)
	if k>>31 == 0 {
		k = ^k &^ (1 << 31)
	}
	return k
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
		k := sweepKey(v)
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

// unswept marks, in compute's union-find, a node the sweep has not reached.
const unswept = math.MinInt32

// root returns the union-find root of x, halving the path on the way. A
// root r holds -size in uf[r], any other node its parent.
func root(uf []int32, x int32) int32 {
	for {
		p := uf[x]
		if p < 0 {
			return x
		}
		g := uf[p]
		if g < 0 {
			return p
		}
		uf[x], x = g, g
	}
}

// unite joins the trees of roots a and b by size, the smaller under the
// larger, and returns the joined tree's root. Find paths then stay
// logarithmic in the component size.
func unite(uf []int32, a, b int32) int32 {
	if uf[a] > uf[b] { // a is the smaller
		a, b = b, a
	}
	uf[a] += uf[b]
	uf[b] = a
	return a
}

// compute runs the merge-tree sweep over a graph whose nodes are ids (in
// ascending order) with values val, and whose node i neighbours the indices
// adj[off[i]:off[i+1]]. Vertices are processed in descending (value, id)
// order; each time a vertex touches existing components, the current
// lowest node of every touched component gains the vertex as its parent
// arc, producing the fully augmented merge tree (every vertex appears, with
// a parent arc to the next lower node of its component). The union-find
// joins by size, so a component's root is not its lowest node: low[r]
// holds that of the component rooted at r.
func compute(ids []uint64, val []float32, off, adj []int32, w *work) *Tree {
	t := &Tree{ids: ids, val: val, par: make([]int32, len(ids))}
	uf, low := grow(&w.uf, len(ids)), grow(&w.low, len(ids))
	for i := range uf {
		t.par[i], uf[i] = -1, unswept
	}
	for _, v := range sweepOrder(val, w) {
		uf[v], low[v] = -1, v
		rv := v // the root of v's component
		for _, u := range adj[off[v]:off[v+1]] {
			if uf[u] == unswept {
				continue
			}
			if r := root(uf, u); r != rv {
				t.par[low[r]] = v
				rv = unite(uf, rv, r)
				low[rv] = v
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
	t, _, _ := merge(trees)
	return t
}

// merge is Merge, also returning the index of its base tree (-1 for none)
// and how many zip steps it took. It starts from the base — the largest
// input tree whose every arc descends in the merged sweep order, so that
// it is already the merge tree of its own arcs — and zips every other
// tree's arcs into it. The augmented merge tree of an arc set is unique,
// so the result depends neither on the base nor on the insertion order.
func merge(trees []*Tree) (t *Tree, base, steps int) {
	w := works.Get().(*work)
	defer works.Put(w)
	ids, val, to := union(trees, w)
	// rank[i] > rank[j] exactly when merged node i is above node j.
	rank := grow(&w.rank, len(ids))
	for i, v := range val {
		rank[i] = uint64(^sweepKey(v))<<32 | uint64(i)
	}
	// descends reports whether every arc of tr, whose nodes map through
	// to, goes to a lower node.
	descends := func(tr *Tree, to []int32) bool {
		for c, p := range tr.par {
			if p >= 0 && rank[to[c]] <= rank[to[p]] {
				return false
			}
		}
		return true
	}
	base = -1
	start := 0 // the base's first node in to
	for k, off := 0, 0; k < len(trees); k++ {
		tr := trees[k]
		if (base < 0 || tr.Len() >= trees[base].Len()) && descends(tr, to[off:]) {
			base, start = k, off
		}
		off += tr.Len()
	}
	t = &Tree{ids: ids, val: val, par: make([]int32, len(ids))}
	z := zipper{par: t.par, rank: rank, memo: grow(&w.memo, len(ids)), seen: w.seen}
	for i := range t.par {
		t.par[i], z.memo[i] = -1, -1
	}
	if base >= 0 {
		for c, p := range trees[base].par {
			if p >= 0 {
				t.par[to[start+c]] = to[start+int(p)]
			}
		}
	}
	for k, off := 0, 0; k < len(trees); k++ {
		tr := trees[k]
		if k != base {
			for c, p := range tr.par {
				if p >= 0 {
					z.insert(to[off+c], to[off+int(p)])
				}
			}
		}
		off += tr.Len()
	}
	w.seen = z.seen
	return t, base, z.steps
}

// union returns the ascending union of the trees' ids with their values,
// a vertex in several trees taking its value in the last of them, and, in
// w's scratch, to: every input node's index in the union, the trees'
// nodes concatenated. It is a k-way merge of the sorted id arrays in which
// at[k] is tree k's cursor.
func union(trees []*Tree, w *work) (ids []uint64, val []float32, to []int32) {
	total := 0
	for _, tr := range trees {
		total += tr.Len()
	}
	ids, val = make([]uint64, 0, total), make([]float32, 0, total)
	at := grow(&w.at, len(trees))
	to = grow(&w.to, total)
	clear(at)
	for {
		// lead holds the lowest head, low; every other head is at least
		// bound, when bounded.
		lead, low, bound, bounded := -1, uint64(0), uint64(0), false
		for k, tr := range trees {
			if int(at[k]) == tr.Len() {
				continue
			}
			switch id := tr.ids[at[k]]; {
			case lead < 0 || id < low:
				if lead >= 0 {
					bound, bounded = low, true
				}
				lead, low = k, id
			case !bounded || id < bound:
				bound, bounded = id, true
			}
		}
		if lead < 0 {
			break
		}
		if !bounded || low < bound {
			// The lead's run of ids below every other head is its alone.
			tr, off := trees[lead], 0
			for _, o := range trees[:lead] {
				off += o.Len()
			}
			i := int(at[lead])
			for ; i < tr.Len() && (!bounded || tr.ids[i] < bound); i++ {
				to[off+i] = int32(len(ids))
				ids, val = append(ids, tr.ids[i]), append(val, tr.val[i])
			}
			at[lead] = int32(i)
			continue
		}
		ids, val = append(ids, low), append(val, 0)
		off := 0
		for k, tr := range trees {
			if int(at[k]) < tr.Len() && tr.ids[at[k]] == low {
				val[len(val)-1], to[off+int(at[k])] = tr.val[at[k]], int32(len(ids)-1)
				at[k]++
			}
			off += tr.Len()
		}
	}
	return ids, val, to
}

// zipper inserts arcs into a merge tree: par is the tree, rank its sweep
// order. memo[i], when not -1, is a node known to lie on i's path down.
// Inserting an arc only ever adds nodes to a path, so a recorded ancestor
// stays one.
type zipper struct {
	par, memo, seen []int32
	rank            []uint64
	steps           int
}

// insert adds the arc a–b by zipping the two descending paths from a and b
// into one (Morozov & Weber, Distributed Merge Trees, PPoPP 2013): the
// higher head steps down while its next node is at or above the other
// head, and otherwise takes the other head as its parent, its old parent
// becoming the other head. The zip stops where the paths meet or one ends.
// A head jumps straight to its recorded ancestor when that is at or above
// the other head, and every node the walk left records where it stopped.
func (z *zipper) insert(a, b int32) {
	par, memo, rank := z.par, z.memo, z.rank
	seen := z.seen[:0]
	for a != b {
		if rank[b] > rank[a] {
			a, b = b, a
		}
		z.steps++
		seen = append(seen, a)
		if m := memo[a]; m >= 0 && rank[m] >= rank[b] {
			a = m
			continue
		}
		p := par[a]
		if p >= 0 && rank[p] >= rank[b] {
			a = p
			continue
		}
		par[a] = b
		if p < 0 {
			break
		}
		a = p
	}
	for _, v := range seen {
		memo[v] = b
	}
	z.seen = seen
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
// The result is w's scratch.
func (t *Tree) labels(threshold float32, w *work) []int32 {
	uf, rep := grow(&w.uf, len(t.ids)), grow(&w.low, len(t.ids))
	for i := range uf {
		uf[i], rep[i] = -1, -1
	}
	for c, p := range t.par {
		if p >= 0 && t.val[c] >= threshold && t.val[p] >= threshold {
			if a, b := root(uf, int32(c)), root(uf, p); a != b {
				unite(uf, a, b)
			}
		}
	}
	for i := range uf {
		if t.val[i] >= threshold {
			r := root(uf, int32(i))
			if r != int32(i) {
				uf[i] = r
			}
			if rep[r] < 0 || t.above(int32(i), rep[r]) {
				rep[r] = int32(i)
			}
		}
	}
	// uf[i] is now i's root, or negative when i is one; it becomes the
	// root's representative.
	for i, r := range uf {
		switch {
		case t.val[i] < threshold:
			uf[i] = -1
		case r < 0:
			uf[i] = rep[i]
		default:
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
	w := works.Get().(*work)
	defer works.Put(w)
	labels := make(map[uint64]uint64)
	for i, r := range t.labels(threshold, w) {
		if r >= 0 {
			labels[t.ids[i]] = t.ids[r]
		}
	}
	return labels
}

// Features returns the distinct segment representatives at a threshold, in
// ascending order: one entry per connected feature.
func (t *Tree) Features(threshold float32) []uint64 {
	w := works.Get().(*work)
	defer works.Put(w)
	out := []uint64{}
	for i, r := range t.labels(threshold, w) {
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
	w := works.Get().(*work)
	defer works.Put(w)
	ix := bucketsOf(t.ids, w)
	for i := range t.par {
		t.par[i] = -1
		if p := le.Uint64(b[20+20*i:]); p != NoNode {
			if t.par[i] = ix.index(p); t.par[i] < 0 {
				return nil, fmt.Errorf("mergetree: tree node %d has parent %d, which is not a node", t.ids[i], p)
			}
		}
	}
	return t, nil
}

// buckets indexes ascending ids for many lookups: the ids whose offset
// from the lowest, shifted right by shift, is k are ids[off[k]:off[k+1]].
// The shift leaves about one id per bucket.
type buckets struct {
	ids   []uint64
	off   []int32
	shift uint
}

// bucketsOf indexes ids, which ascend, in w's scratch.
func bucketsOf(ids []uint64, w *work) buckets {
	if len(ids) == 0 {
		return buckets{}
	}
	span := ids[len(ids)-1] - ids[0]
	shift := uint(bits.Len64(span / uint64(len(ids))))
	off := grow(&w.off, int(span>>shift)+2)
	k := 0
	for i, id := range ids {
		for b := int((id - ids[0]) >> shift); k <= b; k++ {
			off[k] = int32(i)
		}
	}
	for ; k < len(off); k++ {
		off[k] = int32(len(ids))
	}
	return buckets{ids: ids, off: off, shift: shift}
}

// index returns the index of id, or -1 when it is not one of the ids. It
// binary-searches id's bucket: ids on a face of a block cluster, so a
// bucket can hold many.
func (x buckets) index(id uint64) int32 {
	if len(x.ids) == 0 || id < x.ids[0] || id > x.ids[len(x.ids)-1] {
		return -1
	}
	k := (id - x.ids[0]) >> x.shift
	lo, hi := x.off[k], x.off[k+1]
	for lo < hi {
		if m := int32(uint32(lo+hi) >> 1); x.ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < x.off[k+1] && x.ids[lo] == id {
		return lo
	}
	return -1
}

// Equal reports whether two trees have identical node and arc sets.
func (t *Tree) Equal(o *Tree) bool {
	return slices.Equal(t.ids, o.ids) && slices.Equal(t.val, o.val) && slices.Equal(t.par, o.par)
}
