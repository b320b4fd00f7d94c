package graphs

import (
	"slices"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
)

// TestGraphMapKeepsSubtrees pins what the default placement does to the
// figure graphs: heap-numbered trees keep whole subtrees on one shard, so
// only the edges into the few top nodes cross shards (binary swap crosses
// only in its last rounds), and every dependency level is balanced to
// within one task.
func TestGraphMapKeepsSubtrees(t *testing.T) {
	mk := func(g core.TaskGraph, err error) core.TaskGraph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name   string
		g      core.TaskGraph
		shards int
		cross  int // edges whose producer and consumer sit on different shards
	}{
		{"reduction-4096", mk(NewReduction(4096, 2)), 2, 1},
		{"reduction-4096", mk(NewReduction(4096, 2)), 4, 3},
		{"broadcast-4096", mk(NewBroadcast(4096, 2)), 2, 1},
		{"broadcast-4096", mk(NewBroadcast(4096, 2)), 4, 3},
		{"kwaymerge-4096", mk(NewKWayMerge(4096, 2)), 2, 2},
		{"kwaymerge-4096", mk(NewKWayMerge(4096, 2)), 4, 6},
		{"binaryswap-64", mk(NewBinarySwap(64)), 2, 64},
		{"binaryswap-64", mk(NewBinarySwap(64)), 4, 128},
	} {
		p, err := core.Compile(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		shardOf, err := p.Place(core.NewGraphMap(tc.shards, tc.g))
		if err != nil {
			t.Fatal(err)
		}
		cross, edges := 0, 0
		for i := range shardOf {
			for _, c := range p.Consumers(i) {
				edges++
				if shardOf[c] != shardOf[i] {
					cross++
				}
			}
		}
		if cross != tc.cross {
			t.Errorf("%s on %d shards: %d of %d edges cross shards, want %d", tc.name, tc.shards, cross, edges, tc.cross)
		}
		// Per-level loads: the count of each level's tasks on each shard.
		load := make([][]int, p.Max())
		for i, id := range p.TaskIds() {
			lv := p.Height(id) - 1
			if load[lv] == nil {
				load[lv] = make([]int, tc.shards)
			}
			load[lv][shardOf[i]]++
		}
		for lv, l := range load {
			if slices.Max(l)-slices.Min(l) > 1 {
				t.Errorf("%s on %d shards: level %d loads %v differ by more than one task", tc.name, tc.shards, lv, l)
			}
		}
	}
}
