package core

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestModuloMapMatchesPaperListing3(t *testing.T) {
	// Listing 3: shard(task) = task % shardCount; getIds walks shard,
	// shard+shards, ... up to taskCount.
	m := NewModuloMap(3, 10)
	if m.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d", m.ShardCount())
	}
	want := map[ShardId][]TaskId{
		0: {0, 3, 6, 9},
		1: {1, 4, 7},
		2: {2, 5, 8},
	}
	for s, ids := range want {
		got := m.Ids(s)
		if len(got) != len(ids) {
			t.Fatalf("Ids(%d) = %v, want %v", s, got, ids)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Errorf("Ids(%d)[%d] = %d, want %d", s, i, got[i], ids[i])
			}
			if m.Shard(ids[i]) != s {
				t.Errorf("Shard(%d) = %d, want %d", ids[i], m.Shard(ids[i]), s)
			}
		}
	}
}

func TestModuloMapOutOfRangeShard(t *testing.T) {
	m := NewModuloMap(2, 4)
	if ids := m.Ids(-1); ids != nil {
		t.Errorf("Ids(-1) = %v", ids)
	}
	if ids := m.Ids(2); ids != nil {
		t.Errorf("Ids(2) = %v", ids)
	}
}

func TestModuloMapPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero shards")
		}
	}()
	NewModuloMap(0, 4)
}

func TestBlockMapContiguity(t *testing.T) {
	m := NewBlockMap(3, 10) // blocks of 4: [0..3] [4..7] [8..9]
	if got := m.Ids(0); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("Ids(0) = %v", got)
	}
	if got := m.Ids(2); len(got) != 2 || got[0] != 8 {
		t.Errorf("Ids(2) = %v", got)
	}
	if m.Shard(9) != 2 {
		t.Errorf("Shard(9) = %d", m.Shard(9))
	}
}

func TestBlockMapMoreShardsThanTasks(t *testing.T) {
	m := NewBlockMap(8, 3)
	count := 0
	for s := ShardId(0); int(s) < m.ShardCount(); s++ {
		count += len(m.Ids(s))
	}
	if count != 3 {
		t.Errorf("total assigned = %d, want 3", count)
	}
}

func TestListMapNonContiguousIds(t *testing.T) {
	ids := []TaskId{100, 7, 2000, 3}
	m := NewListMap(2, ids)
	if m.Shard(100) != 0 || m.Shard(7) != 1 || m.Shard(2000) != 0 || m.Shard(3) != 1 {
		t.Error("round-robin placement over enumeration order broken")
	}
	got := m.Ids(0)
	if len(got) != 2 || got[0] != 100 || got[1] != 2000 {
		t.Errorf("Ids(0) = %v", got)
	}
}

// The default placement has one rule in three forms: Plan.Spread for
// controllers that place by dense index, Place(NewGraphMap) resolved against
// the plan, and a standalone GraphMap's Ids and Shard.
func TestPlanSpreadIsGraphMap(t *testing.T) {
	g := NewExplicitGraph([]Task{
		{Id: 3, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{100}}},
		{Id: 5, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{100}}},
		{Id: 7, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{2000}}},
		{Id: 9, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{2000}}},
		{Id: 100, Callback: 0, Incoming: []TaskId{3, 5}, Outgoing: [][]TaskId{{4000}}},
		{Id: 2000, Callback: 0, Incoming: []TaskId{7, 9}, Outgoing: [][]TaskId{{4000}}},
		{Id: 4000, Callback: 0, Incoming: []TaskId{100, 2000}, Outgoing: [][]TaskId{nil}},
	})
	p, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]int32{
		1: {0, 0, 0, 0, 0, 0, 0},
		2: {0, 0, 1, 1, 0, 1, 0},
		3: {0, 0, 1, 2, 0, 1, 0},
		5: {0, 1, 2, 3, 0, 2, 0},
	}
	for shards := 1; shards <= 5; shards++ {
		got := p.Spread(shards)
		if w, ok := want[shards]; ok && !slices.Equal(got, w) {
			t.Errorf("%d shards: Spread = %v, want %v", shards, got, w)
		}
		placed, err := p.Place(NewGraphMap(shards, g))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, placed) {
			t.Errorf("%d shards: Spread = %v, Place(NewGraphMap) = %v", shards, got, placed)
		}
		// Standalone: the map compiles g itself; a FuncMap over it takes
		// Place's generic path.
		m := NewGraphMap(shards, g)
		generic, err := p.Place(NewFuncMap(shards, g.TaskIds(), m.Shard))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, generic) {
			t.Errorf("%d shards: Spread = %v, GraphMap.Shard = %v", shards, got, generic)
		}
		for s := ShardId(0); int(s) < shards; s++ {
			for _, id := range m.Ids(s) {
				if m.Shard(id) != s {
					t.Errorf("%d shards: task %d listed on shard %d, Shard says %d", shards, id, s, m.Shard(id))
				}
			}
		}
	}
}

func TestFuncMap(t *testing.T) {
	ids := ContiguousIds(6)
	m := NewFuncMap(2, ids, func(id TaskId) ShardId {
		if id < 3 {
			return 0
		}
		return 1
	})
	if len(m.Ids(0)) != 3 || len(m.Ids(1)) != 3 {
		t.Errorf("Ids split = %v / %v", m.Ids(0), m.Ids(1))
	}
	if m.Shard(5) != 1 {
		t.Errorf("Shard(5) = %d", m.Shard(5))
	}
}

// Property: for any shard/task counts, modulo and block maps partition the
// task id space: every task appears on exactly one shard and Shard agrees
// with Ids.
func TestMapPartitionProperty(t *testing.T) {
	check := func(shards8, tasks8 uint8) bool {
		shards := int(shards8%16) + 1
		tasks := int(tasks8 % 64)
		for _, m := range []TaskMap{
			NewModuloMap(shards, tasks),
			NewBlockMap(shards, tasks),
			NewListMap(shards, ContiguousIds(tasks)),
		} {
			seen := make(map[TaskId]int)
			for s := ShardId(0); int(s) < m.ShardCount(); s++ {
				for _, id := range m.Ids(s) {
					seen[id]++
					if m.Shard(id) != s {
						return false
					}
				}
			}
			if len(seen) != tasks {
				return false
			}
			for _, n := range seen {
				if n != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPlaceDetectsGap(t *testing.T) {
	p := mustCompile(t, lineGraph(4))
	if _, err := p.Place(NewModuloMap(2, 3)); err == nil { // covers only tasks 0..2
		t.Error("Place should reject a map that misses task 3")
	}
	// A full cover places every task; ids past the graph are ignored.
	for _, n := range []int{4, 6} {
		shardOf, err := p.Place(NewModuloMap(2, n))
		if err != nil {
			t.Fatalf("Place on a cover of %d ids: %v", n, err)
		}
		for i, s := range shardOf {
			if int(s) != i%2 {
				t.Fatalf("Place on a cover of %d ids: %v, want task i on shard i%%2", n, shardOf)
			}
		}
	}
}

type dupMap struct{ TaskMap }

func (d dupMap) Ids(s ShardId) []TaskId {
	if s == 0 {
		return []TaskId{0, 1}
	}
	return []TaskId{1}
}
func (d dupMap) Shard(id TaskId) ShardId {
	if id == 1 {
		return 1
	}
	return 0
}
func (d dupMap) ShardCount() int { return 2 }

func TestPlaceDetectsDuplicateAndDisagreement(t *testing.T) {
	if _, err := mustCompile(t, lineGraph(2)).Place(dupMap{}); err == nil {
		t.Error("Place should reject duplicate/disagreeing assignments")
	}
}

// lineGraph builds a chain 0 -> 1 -> ... -> n-1 with external input at 0 and
// a sink at n-1. Used across core tests.
func lineGraph(n int) *ExplicitGraph {
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		t := Task{Id: TaskId(i), Callback: 0}
		if i == 0 {
			t.Incoming = []TaskId{ExternalInput}
		} else {
			t.Incoming = []TaskId{TaskId(i - 1)}
		}
		if i == n-1 {
			t.Outgoing = [][]TaskId{{}}
		} else {
			t.Outgoing = [][]TaskId{{TaskId(i + 1)}}
		}
		tasks[i] = t
	}
	return NewExplicitGraph(tasks)
}
