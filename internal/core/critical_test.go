package core

import (
	"testing"
)

func mustCompile(t *testing.T, g TaskGraph) *Plan {
	t.Helper()
	p, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// diamond builds A -> B -> C with a side leaf L -> C.
func diamond() TaskGraph {
	return NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{2}}},
		{Id: 2, Callback: 0, Incoming: []TaskId{1, 3}, Outgoing: [][]TaskId{{}}},
		{Id: 3, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{2}}},
	})
}

func TestCriticalPathsChainWithLeaf(t *testing.T) {
	cp, err := Compile(diamond())
	if err != nil {
		t.Fatal(err)
	}
	// Depth: longest chain to a sink, task included.
	wantDepth := map[TaskId]int{0: 3, 1: 2, 2: 1, 3: 2}
	// Height: longest chain from a source, task included.
	wantHeight := map[TaskId]int{0: 1, 1: 2, 2: 3, 3: 1}
	// Slack: max - (height + depth - 1); only the side leaf is off-path.
	wantSlack := map[TaskId]int{0: 0, 1: 0, 2: 0, 3: 1}
	if cp.Max() != 3 {
		t.Errorf("Max = %d, want 3", cp.Max())
	}
	for id, d := range wantDepth {
		if got := cp.Depth(id); got != d {
			t.Errorf("Depth(%d) = %d, want %d", id, got, d)
		}
	}
	for id, h := range wantHeight {
		if got := cp.Height(id); got != h {
			t.Errorf("Height(%d) = %d, want %d", id, got, h)
		}
	}
	for id, s := range wantSlack {
		if got := cp.Slack(id); got != s {
			t.Errorf("Slack(%d) = %d, want %d", id, got, s)
		}
	}
	// Ids outside the graph have zero depth and full slack.
	if cp.Depth(99) != 0 || cp.Slack(99) != cp.Max() {
		t.Errorf("unknown id: depth %d slack %d", cp.Depth(99), cp.Slack(99))
	}
}

func TestCriticalPathsSingleTask(t *testing.T) {
	g := NewExplicitGraph([]Task{
		{Id: 7, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{}}},
	})
	cp, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Depth(7) != 1 || cp.Height(7) != 1 || cp.Max() != 1 || cp.Slack(7) != 0 {
		t.Errorf("singleton: depth %d height %d max %d slack %d", cp.Depth(7), cp.Height(7), cp.Max(), cp.Slack(7))
	}
}

func TestCriticalPathsFanOutCountsOnce(t *testing.T) {
	// One producer feeding the same consumer on two slots: the duplicated
	// edge must not inflate depths.
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}, {1}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{0, 0}, Outgoing: [][]TaskId{{}}},
	})
	cp, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Depth(0) != 2 || cp.Depth(1) != 1 || cp.Max() != 2 {
		t.Errorf("depths = %d,%d max %d", cp.Depth(0), cp.Depth(1), cp.Max())
	}
}

func TestCriticalPathsCycleFails(t *testing.T) {
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{1}, Outgoing: [][]TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{0}}},
	})
	if _, err := Compile(g); err == nil {
		t.Fatal("cycle must fail the analysis")
	}
}

func TestCompileOfPlanReturnsIt(t *testing.T) {
	// The analysis is part of the plan: compiling a plan again is free and
	// yields the same annotation object.
	a, err := Compile(diamond())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Compile of a plan did not return the plan")
	}
}
