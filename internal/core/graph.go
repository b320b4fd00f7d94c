package core

import (
	"sort"
)

// TaskGraph is the procedural description of a dataflow. Implementations are
// required to compute the total number of tasks and to return the logical
// Task for any task id; everything else (local sub-graphs, levels, roots) is
// derived by the framework.
//
// In practice task graphs may contain millions of nodes, so implementations
// should answer Task queries without materializing the whole graph. TaskIds
// enumerates the (possibly non-contiguous) id space.
type TaskGraph interface {
	// Size returns the total number of tasks in the graph.
	Size() int
	// Task returns the logical task for the given id. ok is false when the
	// id does not belong to the graph.
	Task(id TaskId) (t Task, ok bool)
	// TaskIds enumerates every task id in the graph, in ascending order.
	TaskIds() []TaskId
	// Callbacks lists the task types (callback ids) the graph uses, in a
	// stable documented order so users can register implementations.
	Callbacks() []CallbackId
}

// Leaves returns the ids of all leaf tasks (every input external), sorted.
func Leaves(g TaskGraph) []TaskId {
	var out []TaskId
	for _, id := range g.TaskIds() {
		if t, ok := g.Task(id); ok && t.IsLeaf() {
			out = append(out, id)
		}
	}
	return out
}

// Roots returns the ids of all tasks with at least one sink output, sorted.
func Roots(g TaskGraph) []TaskId {
	var out []TaskId
	for _, id := range g.TaskIds() {
		if t, ok := g.Task(id); ok && t.IsRoot() {
			out = append(out, id)
		}
	}
	return out
}

// ContiguousIds returns the id sequence 0..n-1, the common case for simple
// graphs whose id space is dense.
func ContiguousIds(n int) []TaskId {
	ids := make([]TaskId, n)
	for i := range ids {
		ids[i] = TaskId(i)
	}
	return ids
}

// Levels partitions the graph into rounds of non-interfering tasks
// (Plan.Levels of the compiled graph). The Legion index-launch controller
// executes the graph as one index launch per level; tasks within a level
// have no dependencies among each other.
func Levels(g TaskGraph) ([][]TaskId, error) {
	p, err := Compile(g)
	if err != nil {
		return nil, err
	}
	return p.Levels(), nil
}

// Validate checks the structural consistency of a task graph: it compiles
// the graph (see Compile for the checks) and discards the plan.
func Validate(g TaskGraph) error {
	_, err := Compile(g)
	return err
}

// ExplicitGraph is a TaskGraph materialized from an explicit task list. It
// is convenient for tests, for user-assembled ad-hoc dataflows, and as the
// target representation of graph transformations.
type ExplicitGraph struct {
	tasks     map[TaskId]Task
	ids       []TaskId
	callbacks []CallbackId
}

// NewExplicitGraph builds an explicit graph from tasks. The callback list is
// derived from the tasks in ascending order.
func NewExplicitGraph(tasks []Task) *ExplicitGraph { return explicitGraph(tasks, true) }

// explicitGraph is NewExplicitGraph; without clone it keeps the tasks'
// slices, for a caller that built them and never touches them again.
func explicitGraph(tasks []Task, clone bool) *ExplicitGraph {
	g := &ExplicitGraph{tasks: make(map[TaskId]Task, len(tasks))}
	cbset := make(map[CallbackId]bool)
	for _, t := range tasks {
		if clone {
			t = t.Clone()
		}
		g.tasks[t.Id] = t
		g.ids = append(g.ids, t.Id)
		cbset[t.Callback] = true
	}
	sort.Slice(g.ids, func(i, j int) bool { return g.ids[i] < g.ids[j] })
	for cb := range cbset {
		g.callbacks = append(g.callbacks, cb)
	}
	sort.Slice(g.callbacks, func(i, j int) bool { return g.callbacks[i] < g.callbacks[j] })
	return g
}

// WritePlan implements PlanSource: the tasks are written as stored, with no
// defensive clone — the writer copies every slice.
func (g *ExplicitGraph) WritePlan(w *PlanWriter) {
	var ins, slots, edges int
	for _, t := range g.tasks {
		ins, slots, edges = ins+len(t.Incoming), slots+len(t.Outgoing), edges+t.OutDegree()
	}
	w.Grow(len(g.ids), ins, slots, edges)
	for _, id := range g.ids {
		t := g.tasks[id]
		w.put(&t)
	}
}

// Materialize copies an arbitrary task graph into an ExplicitGraph.
func Materialize(g TaskGraph) *ExplicitGraph {
	tasks := make([]Task, 0, g.Size())
	for _, id := range g.TaskIds() {
		if t, ok := g.Task(id); ok {
			tasks = append(tasks, t)
		}
	}
	eg := NewExplicitGraph(tasks)
	eg.callbacks = append([]CallbackId(nil), g.Callbacks()...)
	return eg
}

// Size implements TaskGraph.
func (g *ExplicitGraph) Size() int { return len(g.ids) }

// Task implements TaskGraph.
func (g *ExplicitGraph) Task(id TaskId) (Task, bool) {
	t, ok := g.tasks[id]
	if !ok {
		return Task{}, false
	}
	return t.Clone(), true
}

// TaskIds implements TaskGraph.
func (g *ExplicitGraph) TaskIds() []TaskId { return append([]TaskId(nil), g.ids...) }

// Callbacks implements TaskGraph.
func (g *ExplicitGraph) Callbacks() []CallbackId {
	return append([]CallbackId(nil), g.callbacks...)
}
