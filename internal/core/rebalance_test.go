package core

import "testing"

// rebalance is Plan.Rebalance of m's placement over members, returned as a
// task map so the tests below can compare it with m task by task.
func rebalance(g TaskGraph, m TaskMap, members []ShardId) (TaskMap, error) {
	p, err := Compile(g)
	if err != nil {
		return nil, err
	}
	base, err := p.Place(m)
	if err != nil {
		return nil, err
	}
	dest, err := p.Rebalance(base, m.ShardCount(), members)
	if err != nil {
		return nil, err
	}
	return NewFuncMap(len(members), p.TaskIds(), func(id TaskId) ShardId {
		i, _ := p.Index(id)
		return ShardId(dest[i])
	}), nil
}

// TestPlanRebalanceWithoutJoiners: with every member a shard of the base
// map, survivors keep their tasks under their logical rank and orphans land
// in range — the loss-only (recovery) special case.
func TestPlanRebalanceWithoutJoiners(t *testing.T) {
	g := reassignGraph()
	m := NewGraphMap(4, g)
	for _, members := range [][]ShardId{
		{0, 1, 2, 3}, {0, 1, 3}, {2}, {0, 2},
	} {
		got, err := rebalance(g, m, members)
		if err != nil {
			t.Fatalf("members %v: %v", members, err)
		}
		if got.ShardCount() != len(members) {
			t.Fatalf("members %v: shard count = %d", members, got.ShardCount())
		}
		logical := map[ShardId]ShardId{}
		for i, s := range members {
			logical[s] = ShardId(i)
		}
		for _, id := range g.TaskIds() {
			if want, ok := logical[m.Shard(id)]; ok && got.Shard(id) != want {
				t.Errorf("members %v: survivor task %d on %d, want %d",
					members, id, got.Shard(id), want)
			}
			if l := got.Shard(id); l < 0 || l >= ShardId(len(members)) {
				t.Fatalf("members %v: task %d out of range shard %d", members, id, l)
			}
		}
	}
}

// TestPlanRebalanceJoin grows 2 → 4: survivors keep a fair share, the two
// joiners end up within one task of every other rank, and the result is
// deterministic.
func TestPlanRebalanceJoin(t *testing.T) {
	g := reassignGraph() // 8 tasks
	m := NewGraphMap(2, g)
	members := []ShardId{0, 1, 2, 3} // 2 survivors + joiners 2,3
	next, err := rebalance(g, m, members)
	if err != nil {
		t.Fatal(err)
	}
	if next.ShardCount() != 4 {
		t.Fatalf("shard count = %d", next.ShardCount())
	}
	counts := map[ShardId]int{}
	for _, id := range g.TaskIds() {
		l := next.Shard(id)
		if l < 0 || l > 3 {
			t.Fatalf("task %d on shard %d", id, l)
		}
		counts[l]++
		// A task that stayed on a survivor must be on its original shard.
		if l <= 1 && m.Shard(id) != l {
			t.Errorf("task %d changed survivor owner %d -> %d", id, m.Shard(id), l)
		}
	}
	for l := ShardId(0); l < 4; l++ {
		if counts[l] != 2 {
			t.Errorf("rank %d owns %d tasks, want 2 (counts %v)", l, counts[l], counts)
		}
	}
	again, err := rebalance(g, m, members)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.TaskIds() {
		if next.Shard(id) != again.Shard(id) {
			t.Fatalf("task %d nondeterministic: %d vs %d", id, next.Shard(id), again.Shard(id))
		}
	}
}

// TestPlanRebalanceJoinAndDrain interleaves a drain with a join: shard 1
// of a 3-shard map leaves while member 3 joins. Orphans and balancing both
// land on valid ranks, survivors never move, and nobody is idle.
func TestPlanRebalanceJoinAndDrain(t *testing.T) {
	g := reassignGraph()
	m := NewGraphMap(3, g)
	members := []ShardId{0, 2, 3} // drain 1, join 3
	next, err := rebalance(g, m, members)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ShardId]int{}
	for _, id := range g.TaskIds() {
		l := next.Shard(id)
		counts[l]++
		// Survivor tasks may migrate to the joiner (logical 2, balancing)
		// but never to the other survivor.
		switch m.Shard(id) {
		case 0:
			if l == 1 {
				t.Errorf("task %d moved survivor->survivor (0 -> 2)", id)
			}
		case 2:
			if l == 0 {
				t.Errorf("task %d moved survivor->survivor (2 -> 0)", id)
			}
		}
	}
	total := 0
	for l := ShardId(0); l < 3; l++ {
		if counts[l] == 0 {
			t.Errorf("rank %d idle after rebalance: %v", l, counts)
		}
		total += counts[l]
	}
	if total != len(g.TaskIds()) {
		t.Fatalf("tasks lost: %v", counts)
	}
	if counts[2] == 0 {
		t.Error("joiner received no work")
	}
}

// TestPlanRebalanceSuccessiveEpochs chains membership epochs the way the
// elastic coordinator does: each epoch's map feeds the next with member
// identities relabelled to the previous epoch's logical ranks.
func TestPlanRebalanceSuccessiveEpochs(t *testing.T) {
	g := reassignGraph()
	m0 := NewGraphMap(2, g)
	m1, err := rebalance(g, m0, []ShardId{0, 1, 2, 3}) // 2 -> 4 join
	if err != nil {
		t.Fatal(err)
	}
	m2, err := rebalance(g, m1, []ShardId{0, 1, 3}) // drain logical 2
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ShardId]int{}
	for _, id := range g.TaskIds() {
		l := m2.Shard(id)
		if l < 0 || l > 2 {
			t.Fatalf("task %d on shard %d of 3", id, l)
		}
		counts[l]++
		if prev := m1.Shard(id); prev != 2 {
			want := prev
			if prev == 3 {
				want = 2
			}
			if l != want {
				t.Errorf("task %d moved from surviving rank %d to %d", id, prev, l)
			}
		}
	}
	if counts[0]+counts[1]+counts[2] != len(g.TaskIds()) {
		t.Fatalf("tasks lost: %v", counts)
	}
}

func TestPlanRebalanceRejectsBadMembers(t *testing.T) {
	g := reassignGraph()
	m := NewGraphMap(4, g)
	if _, err := rebalance(g, m, nil); err == nil {
		t.Error("empty member set accepted")
	}
	if _, err := rebalance(g, m, []ShardId{0, 4, 4}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := rebalance(g, m, []ShardId{0, -1}); err == nil {
		t.Error("negative member accepted")
	}
}

// TestLedgerAdopt moves a recorded task between ledgers: the adoptee owns a
// deep copy, the donor is untouched, and adopting through a backed ledger
// journals the record.
func TestLedgerAdopt(t *testing.T) {
	donor := NewLedger()
	donor.Record(7, [][]byte{{1, 2, 3}, {4}})

	heir := NewLedger()
	if !heir.Adopt(donor, 7) {
		t.Fatal("Adopt of recorded task failed")
	}
	if heir.Adopt(donor, 8) {
		t.Error("Adopt of unrecorded task succeeded")
	}
	if heir.Adopt(heir, 7) {
		t.Error("self-Adopt succeeded")
	}
	outs, ok := heir.Outputs(7)
	if !ok || len(outs) != 2 || outs[0][0] != 1 || outs[1][0] != 4 {
		t.Fatalf("adopted outputs wrong: %v ok=%v", outs, ok)
	}
	// Deep copy: mutating the heir's buffers must not reach the donor.
	outs[0][0] = 99
	dOuts, _ := donor.Outputs(7)
	if dOuts[0][0] != 1 {
		t.Error("Adopt shared buffers with donor")
	}

	st := newFakeStore()
	backed := NewLedgerBacked(st, 4)
	if !backed.Adopt(donor, 7) {
		t.Fatal("Adopt into backed ledger failed")
	}
	if _, ok, _ := st.Get(7); !ok {
		t.Error("Adopt into backed ledger did not journal the record")
	}
}
