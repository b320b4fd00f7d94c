package mergetree

import (
	"sort"
)

// Pair is one persistence pair of the merge tree: a maximum and the saddle
// at which its superlevel-set component merges into a component with a
// higher maximum (the elder rule). Essential maxima — one per connected
// component of the domain — never die; their Saddle is NoNode and their
// Persistence is +Inf in spirit (reported as the maximum's own value).
type Pair struct {
	Max         uint64
	Saddle      uint64
	Persistence float32
	Essential   bool
}

// PersistencePairs computes the persistence pairing of the tree's maxima
// by a descending sweep: when components merge at a saddle, the component
// whose maximum is lower (in sweep order) dies there. Pairs are returned
// sorted by descending persistence, essential pairs first.
func (t *Tree) PersistencePairs() []Pair {
	_, pairs := t.sweepBranches(0, false)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Essential != pairs[j].Essential {
			return pairs[i].Essential
		}
		if pairs[i].Persistence != pairs[j].Persistence {
			return pairs[i].Persistence > pairs[j].Persistence
		}
		return pairs[i].Max < pairs[j].Max
	})
	return pairs
}

// BranchDecomposition labels every node of the tree with the maximum of
// the branch it belongs to, after simplifying away branches whose
// persistence is below minPersistence (their vertices join the surviving
// branch at their death saddle). With minPersistence 0 this is the plain
// branch decomposition; larger values give the noise-robust feature
// segmentation topological analysis is used for.
func (t *Tree) BranchDecomposition(minPersistence float32) map[uint64]uint64 {
	labels, _ := t.sweepBranches(minPersistence, true)
	out := make(map[uint64]uint64, len(labels))
	for v, m := range labels {
		out[t.ids[v]] = t.ids[m]
	}
	return out
}

// sweepBranches performs the descending sweep shared by PersistencePairs
// and BranchDecomposition. It processes nodes from highest to lowest,
// merging the child components arriving at each node into the node's own,
// so a component's union-find root is its lowest node; each node is
// labeled with the index of its component's representative maximum at
// processing time. Dying branches with persistence below minPersistence
// are remapped into their survivor when simplify is set.
func (t *Tree) sweepBranches(minPersistence float32, simplify bool) ([]int32, []Pair) {
	w := works.Get().(*work)
	defer works.Put(w)
	// Node v's children are kids[off[v]:off[v+1]], ascending.
	n := len(t.ids)
	off := grow(&w.off, n+2)
	clear(off)
	for _, p := range t.par {
		if p >= 0 {
			off[p+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	kids := grow(&w.adj, int(off[n+1]))
	for c, p := range t.par {
		if p >= 0 {
			kids[off[p+1]], off[p+1] = int32(c), off[p+1]+1
		}
	}
	uf, best := make([]int32, n), make([]int32, n) // best: root -> branch max
	labels, remap := make([]int32, n), make([]int32, n)
	for i := range uf {
		uf[i], best[i], remap[i] = int32(i), int32(i), -1
	}
	var pairs []Pair
	for _, v := range sweepOrder(t.val, w) {
		survivor := v
		for _, c := range kids[off[v]:off[v+1]] {
			if m := best[find(uf, c)]; t.above(m, survivor) {
				survivor = m
			}
		}
		// Every non-surviving branch dies at v.
		for _, c := range kids[off[v]:off[v+1]] {
			r := find(uf, c)
			if m := best[r]; m != survivor {
				pers := t.val[m] - t.val[v]
				pairs = append(pairs, Pair{Max: t.ids[m], Saddle: t.ids[v], Persistence: pers})
				if simplify && pers < minPersistence {
					remap[m] = survivor
				}
			}
			uf[r] = v
		}
		best[v], labels[v] = survivor, survivor
	}
	// Essential maxima: the best of every final component.
	for r, p := range uf {
		if int(p) == r {
			m := best[r]
			pairs = append(pairs, Pair{Max: t.ids[m], Persistence: t.val[m], Essential: true})
		}
	}
	if simplify {
		for v, m := range labels {
			for remap[m] >= 0 {
				m = remap[m]
			}
			labels[v] = m
		}
	}
	return labels, pairs
}

// FeatureCount returns the number of features with persistence at least
// minPersistence — the hierarchy the paper's topological use case explores
// by varying thresholds.
func (t *Tree) FeatureCount(minPersistence float32) int {
	n := 0
	for _, p := range t.PersistencePairs() {
		if p.Essential || p.Persistence >= minPersistence {
			n++
		}
	}
	return n
}

// find returns the union-find root of x in a forest whose roots point to
// themselves, halving the path on the way. sweepBranches makes each node
// the root of what it joins, so a root is its component's lowest node.
func find(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}
