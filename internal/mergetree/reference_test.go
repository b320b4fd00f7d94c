package mergetree

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/babelflow/babelflow-go/internal/data"
)

// This file keeps the map-based merge-tree kernel that the array-backed one
// replaced, as the reference the kernel is checked against: a tree is a map
// of values and a map of parent arcs, the sweep sorts with a comparator over
// map lookups, and the union-find is a map.

type refTree struct {
	value  map[uint64]float32
	parent map[uint64]uint64
}

func newRefTree() *refTree {
	return &refTree{value: make(map[uint64]float32), parent: make(map[uint64]uint64)}
}

// treeOf builds a Tree from a value per node and a parent per non-root
// node; every parent must be a node.
func treeOf(value map[uint64]float32, parent map[uint64]uint64) *Tree {
	t := NewTree()
	for id := range value {
		t.ids = append(t.ids, id)
	}
	slices.Sort(t.ids)
	for _, id := range t.ids {
		p, ok := parent[id]
		t.val, t.par = append(t.val, value[id]), append(t.par, -1)
		if ok {
			t.par[len(t.par)-1] = t.index(p)
		}
	}
	return t
}

func (r *refTree) tree() *Tree { return treeOf(r.value, r.parent) }

func refAbove(va float32, a uint64, vb float32, b uint64) bool {
	if va != vb {
		return va > vb
	}
	return a > b
}

type refUnionFind map[uint64]uint64

func (u refUnionFind) find(x uint64) uint64 {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u refUnionFind) union(a, b uint64) uint64 {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u[rb] = ra
	}
	return ra
}

func refSweepOrder(values map[uint64]float32) []uint64 {
	order := make([]uint64, 0, len(values))
	for id := range values {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool {
		return refAbove(values[order[i]], order[i], values[order[j]], order[j])
	})
	return order
}

func refCompute(values map[uint64]float32, adj func(uint64) []uint64) *refTree {
	t := newRefTree()
	uf := refUnionFind{}
	lowest := make(map[uint64]uint64, len(values))
	processed := make(map[uint64]bool, len(values))
	for _, v := range refSweepOrder(values) {
		t.value[v] = values[v]
		uf[v] = v
		lowest[v] = v
		for _, u := range adj(v) {
			if !processed[u] {
				continue
			}
			ru, rv := uf.find(u), uf.find(v)
			if ru == rv {
				continue
			}
			t.parent[lowest[ru]] = v
			lowest[uf.union(rv, ru)] = v
		}
		processed[v] = true
	}
	return t
}

func refFromField(block *data.Field, originX, originY, originZ, domainNX, domainNY int, threshold float32) *refTree {
	values := make(map[uint64]float32)
	for z := 0; z < block.NZ; z++ {
		for y := 0; y < block.NY; y++ {
			for x := 0; x < block.NX; x++ {
				if v := block.At(x, y, z); v >= threshold {
					values[VertexId(originX+x, originY+y, originZ+z, domainNX, domainNY)] = v
				}
			}
		}
	}
	offsets := [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}
	return refCompute(values, func(id uint64) []uint64 {
		gx, gy, gz := VertexCoords(id, domainNX, domainNY)
		x, y, z := gx-originX, gy-originY, gz-originZ
		var out []uint64
		for _, o := range offsets {
			nx, ny, nz := x+o[0], y+o[1], z+o[2]
			if nx < 0 || nx >= block.NX || ny < 0 || ny >= block.NY || nz < 0 || nz >= block.NZ {
				continue
			}
			nid := VertexId(originX+nx, originY+ny, originZ+nz, domainNX, domainNY)
			if _, ok := values[nid]; ok {
				out = append(out, nid)
			}
		}
		return out
	})
}

func refMerge(trees ...*refTree) *refTree {
	values := make(map[uint64]float32)
	adj := make(map[uint64][]uint64)
	for _, tr := range trees {
		for id, v := range tr.value {
			values[id] = v
		}
		for c, p := range tr.parent {
			adj[c] = append(adj[c], p)
			adj[p] = append(adj[p], c)
		}
	}
	return refCompute(values, func(id uint64) []uint64 { return adj[id] })
}

func (r *refTree) reduce(keep func(id uint64) bool) *refTree {
	children := make(map[uint64]int, len(r.value))
	for _, p := range r.parent {
		children[p]++
	}
	kept := make(map[uint64]bool, len(r.value))
	for id := range r.value {
		_, hasParent := r.parent[id]
		if children[id] != 1 || !hasParent || keep != nil && keep(id) {
			kept[id] = true
		}
	}
	out := newRefTree()
	for id := range kept {
		out.value[id] = r.value[id]
		p, ok := r.parent[id]
		for ok && !kept[p] {
			p, ok = r.parent[p]
		}
		if ok {
			out.parent[id] = p
		}
	}
	return out
}

func (r *refTree) segment(threshold float32) map[uint64]uint64 {
	uf := refUnionFind{}
	for id, v := range r.value {
		if v >= threshold {
			uf[id] = id
		}
	}
	for c, p := range r.parent {
		if r.value[c] >= threshold && r.value[p] >= threshold {
			uf.union(c, p)
		}
	}
	rep := make(map[uint64]uint64)
	for id, v := range r.value {
		if v < threshold {
			continue
		}
		root := uf.find(id)
		if cur, ok := rep[root]; !ok || refAbove(v, id, r.value[cur], cur) {
			rep[root] = id
		}
	}
	labels := make(map[uint64]uint64)
	for id, v := range r.value {
		if v >= threshold {
			labels[id] = rep[uf.find(id)]
		}
	}
	return labels
}

func (r *refTree) features(threshold float32) []uint64 {
	seen := make(map[uint64]bool)
	for _, rep := range r.segment(threshold) {
		seen[rep] = true
	}
	out := []uint64{}
	for rep := range seen {
		out = append(out, rep)
	}
	slices.Sort(out)
	return out
}

func (r *refTree) sweepBranches(minPersistence float32, simplify bool) (map[uint64]uint64, []Pair) {
	children := make(map[uint64][]uint64, len(r.value))
	for c, p := range r.parent {
		children[p] = append(children[p], c)
	}
	uf := refUnionFind{}
	best := make(map[uint64]uint64, len(r.value))
	labels := make(map[uint64]uint64, len(r.value))
	remap := make(map[uint64]uint64)
	var pairs []Pair
	for _, v := range refSweepOrder(r.value) {
		uf[v] = v
		best[v] = v
		survivor := v
		var merged []uint64
		for _, c := range children[v] {
			m := best[uf.find(c)]
			merged = append(merged, m)
			if refAbove(r.value[m], m, r.value[survivor], survivor) {
				survivor = m
			}
		}
		for _, c := range children[v] {
			best[uf.union(uf.find(v), uf.find(c))] = survivor
		}
		for _, m := range merged {
			if m == survivor {
				continue
			}
			pers := r.value[m] - r.value[v]
			pairs = append(pairs, Pair{Max: m, Saddle: v, Persistence: pers})
			if simplify && pers < minPersistence {
				remap[m] = survivor
			}
		}
		labels[v] = survivor
	}
	roots := make(map[uint64]bool)
	for id := range r.value {
		roots[uf.find(id)] = true
	}
	for root := range roots {
		m := best[root]
		pairs = append(pairs, Pair{Max: m, Persistence: r.value[m], Essential: true})
	}
	if simplify {
		for v, m := range labels {
			for next, ok := remap[m]; ok; next, ok = remap[m] {
				m = next
			}
			labels[v] = m
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Essential != pairs[j].Essential {
			return pairs[i].Essential
		}
		if pairs[i].Persistence != pairs[j].Persistence {
			return pairs[i].Persistence > pairs[j].Persistence
		}
		return pairs[i].Max < pairs[j].Max
	})
	return labels, pairs
}

func (r *refTree) serialize() []byte {
	ids := make([]uint64, 0, len(r.value))
	for id := range r.value {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf := binary.LittleEndian.AppendUint64(nil, uint64(len(ids)))
	for _, id := range ids {
		p, ok := r.parent[id]
		if !ok {
			p = NoNode
		}
		buf = binary.LittleEndian.AppendUint64(buf, id)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(r.value[id]))
		buf = binary.LittleEndian.AppendUint64(buf, p)
	}
	return buf
}

// drawField fills an nx*ny*nz field with values from a small set, so that
// ties (and -0 against +0) exercise the id tie-break.
func drawField(rng *data.Rand, nx, ny, nz int) *data.Field {
	f := data.NewField(nx, ny, nz)
	for i := range f.Values {
		f.Values[i] = float32(rng.Intn(9)-4) / 2
		if f.Values[i] == 0 && rng.Intn(2) == 0 {
			f.Values[i] = float32(math.Copysign(0, -1))
		}
	}
	return f
}

// TestKernelMatchesReference compares every kernel with the map-based
// reference on seeded draws: FromField on random fields of 1–9 voxels per
// axis with tied values, Merge of 1–4 overlapping sub-block trees (some cut
// from a second field, so a shared vertex can carry two values), Reduce with
// a random keep predicate, Segment and Features at a random threshold,
// persistence pairs, BranchDecomposition and the serialized bytes.
func TestKernelMatchesReference(t *testing.T) {
	const draws = 2000
	rng := data.NewRand(20261016)
	for d := 0; d < draws; d++ {
		nx, ny, nz := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		fields := []*data.Field{drawField(rng, nx, ny, nz), drawField(rng, nx, ny, nz)}
		threshold := float32(rng.Intn(9)-5) / 2

		check := func(what string, got *Tree, want *refTree) {
			t.Helper()
			if !got.Equal(want.tree()) || string(got.Serialize()) != string(want.serialize()) {
				t.Fatalf("draw %d (%dx%dx%d, threshold %v): %s differs from the reference", d, nx, ny, nz, threshold, what)
			}
		}
		check("FromField", FromField(fields[0], 0, 0, 0, nx, ny, threshold), refFromField(fields[0], 0, 0, 0, nx, ny, threshold))

		var trees []*Tree
		var refs []*refTree
		for k := 1 + rng.Intn(4); k > 0; k-- {
			x0, y0, z0 := rng.Intn(nx), rng.Intn(ny), rng.Intn(nz)
			sx, sy, sz := 1+rng.Intn(nx-x0), 1+rng.Intn(ny-y0), 1+rng.Intn(nz-z0)
			f := fields[rng.Intn(4)/3]
			blk := f.SubField(x0, y0, z0, sx, sy, sz)
			trees = append(trees, FromField(blk, x0, y0, z0, nx, ny, threshold))
			refs = append(refs, refFromField(blk, x0, y0, z0, nx, ny, threshold))
		}
		merged, refMerged := Merge(trees...), refMerge(refs...)
		check("Merge", merged, refMerged)

		salt, mod := uint64(rng.Intn(1<<30)), uint64(1+rng.Intn(5))
		keep := func(id uint64) bool { return (id*0x9E3779B97F4A7C15^salt)%mod == 0 }
		reduced, refReduced := merged.Reduce(keep), refMerged.reduce(keep)
		check("Reduce", reduced, refReduced)
		check("Reduce(nil)", merged.Reduce(nil), refMerged.reduce(nil))
		check("Merge of reduced trees", Merge(reduced, trees[0]), refMerge(refReduced, refs[0]))

		at := float32(rng.Intn(9)-4) / 2
		if got, want := merged.Segment(at), refMerged.segment(at); !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d: Segment(%v) = %v, reference %v", d, at, got, want)
		}
		if got, want := merged.Features(at), refMerged.features(at); !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d: Features(%v) = %v, reference %v", d, at, got, want)
		}
		minPers := float32(rng.Intn(6)) / 2
		_, wantPairs := refMerged.sweepBranches(0, false)
		if got := merged.PersistencePairs(); !reflect.DeepEqual(got, wantPairs) {
			t.Fatalf("draw %d: PersistencePairs = %v, reference %v", d, got, wantPairs)
		}
		wantLabels, _ := refMerged.sweepBranches(minPers, true)
		if got := merged.BranchDecomposition(minPers); !reflect.DeepEqual(got, wantLabels) {
			t.Fatalf("draw %d: BranchDecomposition(%v) = %v, reference %v", d, minPers, got, wantLabels)
		}
	}
}
