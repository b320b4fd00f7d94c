package core

import (
	"strings"
	"testing"
)

// diamondGraph: 0 and 1 are leaves feeding 2; 2 fans out one output to both
// 3 and 4; both feed 5 which has a sink output.
func diamondGraph() *ExplicitGraph {
	return NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{2}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{2}}},
		{Id: 2, Callback: 1, Incoming: []TaskId{0, 1}, Outgoing: [][]TaskId{{3, 4}}},
		{Id: 3, Callback: 2, Incoming: []TaskId{2}, Outgoing: [][]TaskId{{5}}},
		{Id: 4, Callback: 2, Incoming: []TaskId{2}, Outgoing: [][]TaskId{{5}}},
		{Id: 5, Callback: 3, Incoming: []TaskId{3, 4}, Outgoing: [][]TaskId{{}}},
	})
}

func TestValidateAcceptsDiamond(t *testing.T) {
	if err := Validate(diamondGraph()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestLeavesAndRoots(t *testing.T) {
	g := diamondGraph()
	leaves := Leaves(g)
	if len(leaves) != 2 || leaves[0] != 0 || leaves[1] != 1 {
		t.Errorf("Leaves = %v", leaves)
	}
	roots := Roots(g)
	if len(roots) != 1 || roots[0] != 5 {
		t.Errorf("Roots = %v", roots)
	}
}

func TestLevelsDiamond(t *testing.T) {
	rounds, err := Levels(diamondGraph())
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	if len(rounds) != 4 {
		t.Fatalf("levels = %d, want 4", len(rounds))
	}
	if len(rounds[0]) != 2 || len(rounds[1]) != 1 || len(rounds[2]) != 2 || len(rounds[3]) != 1 {
		t.Errorf("round sizes = %d %d %d %d", len(rounds[0]), len(rounds[1]), len(rounds[2]), len(rounds[3]))
	}
	if rounds[1][0] != 2 || rounds[3][0] != 5 {
		t.Errorf("rounds = %v", rounds)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{1}, Outgoing: [][]TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{0}}},
	})
	err := Validate(g)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Validate on cycle = %v", err)
	}
}

func TestValidateRejectsAsymmetricEdge(t *testing.T) {
	// 0 claims to send to 1, but 1 does not list 0 as a producer.
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{}}},
	})
	if err := Validate(g); err == nil {
		t.Error("Validate should reject asymmetric edges")
	}
}

func TestValidateRejectsUnknownConsumer(t *testing.T) {
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{42}}},
	})
	if err := Validate(g); err == nil {
		t.Error("Validate should reject edges to unknown tasks")
	}
}

func TestValidateRejectsUnknownProducer(t *testing.T) {
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{42}, Outgoing: [][]TaskId{{}}},
	})
	if err := Validate(g); err == nil {
		t.Error("Validate should reject inputs from unknown tasks")
	}
}

type badSizeGraph struct{ *ExplicitGraph }

func (b badSizeGraph) Size() int { return b.ExplicitGraph.Size() + 1 }

func TestValidateRejectsSizeMismatch(t *testing.T) {
	if err := Validate(badSizeGraph{lineGraph(3)}); err == nil {
		t.Error("Validate should reject Size/TaskIds mismatch")
	}
}

type badCallbackGraph struct{ *ExplicitGraph }

func (b badCallbackGraph) Callbacks() []CallbackId { return nil }

func TestValidateRejectsUnlistedCallback(t *testing.T) {
	if err := Validate(badCallbackGraph{lineGraph(3)}); err == nil {
		t.Error("Validate should reject callbacks missing from Callbacks()")
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	g := diamondGraph()
	m := Materialize(g)
	if m.Size() != g.Size() {
		t.Fatalf("Size = %d, want %d", m.Size(), g.Size())
	}
	for _, id := range g.TaskIds() {
		a, _ := g.Task(id)
		b, ok := m.Task(id)
		if !ok {
			t.Fatalf("materialized graph lost task %d", id)
		}
		if a.Callback != b.Callback || len(a.Incoming) != len(b.Incoming) {
			t.Errorf("task %d differs after Materialize", id)
		}
	}
	if err := Validate(m); err != nil {
		t.Errorf("materialized graph invalid: %v", err)
	}
}

func TestExplicitGraphTaskReturnsCopy(t *testing.T) {
	g := diamondGraph()
	a, _ := g.Task(2)
	a.Outgoing[0][0] = 99
	b, _ := g.Task(2)
	if b.Outgoing[0][0] == 99 {
		t.Error("ExplicitGraph.Task must return an independent copy")
	}
}

func TestContiguousIds(t *testing.T) {
	ids := ContiguousIds(4)
	for i, id := range ids {
		if id != TaskId(i) {
			t.Fatalf("ids[%d] = %d", i, id)
		}
	}
	if len(ContiguousIds(0)) != 0 {
		t.Error("ContiguousIds(0) should be empty")
	}
}

func TestCheckInitial(t *testing.T) {
	g := diamondGraph()
	ok := map[TaskId][]Payload{
		0: {Buffer([]byte{1})},
		1: {Buffer([]byte{2})},
	}
	if err := CheckInitial(g, ok); err != nil {
		t.Errorf("CheckInitial valid set: %v", err)
	}
	missing := map[TaskId][]Payload{0: {Buffer([]byte{1})}}
	if err := CheckInitial(g, missing); err == nil {
		t.Error("CheckInitial should flag the missing input for task 1")
	}
	extra := map[TaskId][]Payload{
		0: {Buffer([]byte{1})},
		1: {Buffer([]byte{2})},
		2: {Buffer([]byte{3})},
	}
	if err := CheckInitial(g, extra); err == nil {
		t.Error("CheckInitial should flag inputs for non-leaf task 2")
	}
	wrongCount := map[TaskId][]Payload{
		0: {Buffer([]byte{1}), Buffer([]byte{9})},
		1: {Buffer([]byte{2})},
	}
	if err := CheckInitial(g, wrongCount); err == nil {
		t.Error("CheckInitial should flag wrong payload count")
	}
	unknown := map[TaskId][]Payload{99: {Buffer([]byte{1})}}
	if err := CheckInitial(g, unknown); err == nil {
		t.Error("CheckInitial should flag unknown tasks")
	}
}

// Property: in any valid level partition, every task sits strictly above
// all of its producers.
func TestLevelsRespectDependenciesProperty(t *testing.T) {
	for n := 1; n <= 40; n += 3 {
		g := lineGraph(n)
		rounds, err := Levels(g)
		if err != nil {
			t.Fatal(err)
		}
		level := make(map[TaskId]int)
		for l, round := range rounds {
			for _, id := range round {
				level[id] = l
			}
		}
		if len(level) != n {
			t.Fatalf("n=%d: levels cover %d tasks", n, len(level))
		}
		for _, id := range g.TaskIds() {
			task, _ := g.Task(id)
			for _, p := range task.Producers() {
				if level[p] >= level[id] {
					t.Fatalf("n=%d: task %d at level %d not above producer %d at %d",
						n, id, level[id], p, level[p])
				}
			}
		}
	}
}

// TestNewExplicitGraphIsolatesCaller: NewExplicitGraph copies the tasks it
// is given, so mutating the caller's Incoming and Outgoing slices after
// construction changes neither the graph nor its compiled plan.
func TestNewExplicitGraphIsolatesCaller(t *testing.T) {
	tasks := []Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{0}, Outgoing: [][]TaskId{nil}},
	}
	g := NewExplicitGraph(tasks)
	p, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	tasks[0].Outgoing[0][0] = 7
	tasks[0].Outgoing[0] = nil
	tasks[1].Incoming[0] = 7
	for _, h := range []TaskGraph{g, p} {
		a, _ := h.Task(0)
		b, _ := h.Task(1)
		if a.Outgoing[0][0] != 1 || b.Incoming[0] != 0 {
			t.Errorf("%T changed with the caller's slices: %v, %v", h, a, b)
		}
	}
	if err := Validate(g); err != nil {
		t.Errorf("graph invalid after the caller's edit: %v", err)
	}
}
