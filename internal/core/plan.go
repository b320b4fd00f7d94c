package core

import (
	"fmt"
	"slices"
	"sort"
)

// Plan is a task graph compiled into flat arrays: each task is written once
// (see Compile), and everything the framework needs afterwards —
// validation, the dependency levels, the critical-path annotation, input
// and edge offsets — is derived from and answered out of those arrays. A
// Plan is immutable and safe for concurrent use; it implements TaskGraph
// with zero-allocation answers whose slices alias the plan's storage and
// must not be modified.
//
// Tasks are addressed by dense index as well as by id: index i is the
// position of the task's id in the ascending TaskIds enumeration. Controllers
// run on indices, so no per-task lookup keyed by TaskId remains on their
// paths.
//
// A plan is global — it holds every task, as validation always did; the
// procedural TaskGraph stays the user-facing description.
type Plan struct {
	ids       []TaskId // ascending
	dense     bool     // ids[i] == TaskId(i), so Index is the identity
	tasks     []Task   // by index; every slice is a window of a PlanWriter array
	callbacks []CallbackId

	ext    []int32 // number of ExternalInput slots per task
	outOff []int32 // prefix sums of out edges into outIdx
	outIdx []int32 // consumer index per out edge, output slots concatenated in slot order

	// Critical-path annotation. depth is the number of tasks on the longest
	// dependency chain from the task to any sink, the task included; height
	// the same toward the sources. A task with depth d still gates d-1
	// successors, so among simultaneously ready tasks the deepest is the
	// most critical. Both depend only on the graph structure, so every shard
	// of a distributed run — and the simulator — rank ready tasks
	// identically.
	depth, height []int32
	max           int
}

// Compile validates a task graph and returns its plan. Its one back end is
// a PlanWriter, fed by one of two front ends: a PlanSource writes its own
// tasks, and any other graph is walked — TaskIds called once and Task once
// per id. Every plan then gets the same checks, in ascending id order so a
// graph with several defects always reports the same one:
//
//   - Size matches the number of tasks, ids ascend strictly and none is the
//     reserved ExternalInput;
//   - every task's callback id appears in Callbacks();
//   - conditional-edge declarations are well formed (violations surface as
//     *CondError);
//   - every edge is symmetric: if a lists b as a consumer, b lists a as a
//     producer, and vice versa;
//   - the graph is acyclic (violations surface as a path-citing
//     *CycleError).
//
// All controllers accept only graphs that compile; the serial executor is
// the reference for what a valid graph computes. Compile of a *Plan returns
// it, and of an *IterativeGraph the plan Iterate compiled.
func Compile(g TaskGraph) (*Plan, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil task graph")
	}
	var w PlanWriter
	switch g := g.(type) {
	case *Plan:
		return g, nil
	case *IterativeGraph:
		return g.plan, nil
	case PlanSource:
		g.WritePlan(&w)
	default:
		if err := w.walk(g); err != nil {
			return nil, err
		}
	}
	return w.plan(g)
}

// PlanSource is a task graph that writes its own plan: WritePlan writes
// through w, in ascending id order, exactly the tasks Task answers. Compile
// takes what it writes instead of walking Task, and validates it the same
// way. A type that embeds a PlanSource and answers Task differently must
// write its own plan too.
type PlanSource interface {
	TaskGraph
	WritePlan(w *PlanWriter)
}

// PlanWriter writes a plan task by task: Task opens a task with its
// callback and producers, and each Slot call appends an output slot to it.
// Every slice of a written task is a capacity-capped window of one of the
// writer's arrays, so a plan Grow sized exactly costs a constant number of
// allocations whatever its size.
//
// A zero PlanWriter that writes one task hands it back with Written: that
// is how a PlanSource answers Task(id) with the rule it writes its plan
// with.
type PlanWriter struct {
	tasks   []Task
	in, out []TaskId
	slots   [][]TaskId
	cond    []int
	s0      int  // the open task's first slot in slots
	one     Task // the first task of a writer never grown, until a second
	staged  bool // one is the open task
}

// Grow sizes the writer for a plan's totals: tasks, input slots, output
// slots and consumer edges. Short totals cost allocations, never
// correctness.
func (w *PlanWriter) Grow(tasks, ins, slots, edges int) {
	w.tasks = slices.Grow(w.tasks, tasks)
	w.in = slices.Grow(w.in, ins)
	w.slots = slices.Grow(w.slots, slots)
	w.out = slices.Grow(w.out, edges)
}

// Task opens the next task: its id, callback and producers in input-slot
// order (nil for none).
func (w *PlanWriter) Task(id TaskId, cb CallbackId, in ...TaskId) {
	if cap(w.tasks) == 0 && !w.staged {
		w.one, w.staged = Task{Id: id, Callback: cb}, true
	} else {
		w.unstage()
		w.tasks = append(w.tasks, Task{Id: id, Callback: cb})
	}
	w.open().Incoming = window(&w.in, in)
	w.s0 = len(w.slots)
}

// open is the task written last.
func (w *PlanWriter) open() *Task {
	if w.staged {
		return &w.one
	}
	return &w.tasks[len(w.tasks)-1]
}

// unstage moves a staged task into tasks.
func (w *PlanWriter) unstage() {
	if w.staged {
		w.tasks, w.staged = append(w.tasks, w.one), false
	}
}

// Slot appends an output slot to the open task, multicast to the given
// consumers; with none it is a sink.
func (w *PlanWriter) Slot(consumers ...TaskId) {
	if consumers == nil {
		consumers = []TaskId{}
	}
	w.slots = append(w.slots, window(&w.out, consumers))
	w.open().Outgoing = w.slots[w.s0:len(w.slots):len(w.slots)]
}

// Written returns the open task: the one task a zero writer was given.
func (w *PlanWriter) Written() Task { return *w.open() }

// window appends src to *arr and returns the appended elements as a
// capacity-capped window; nil stays nil and empty stays empty.
func window[T any](arr *[]T, src []T) []T {
	if src == nil {
		return nil
	}
	if len(src) == 0 {
		return []T{}
	}
	k := len(*arr)
	*arr = append(*arr, src...)
	return (*arr)[k:len(*arr):len(*arr)]
}

// put writes a task exactly as a graph answered it, nil-ness included.
func (w *PlanWriter) put(t *Task) {
	w.Task(t.Id, t.Callback, t.Incoming...)
	for _, slot := range t.Outgoing {
		w.Slot(slot...)
		if slot == nil {
			w.slots[len(w.slots)-1] = nil
		}
	}
	o := w.open()
	if t.Outgoing != nil && len(t.Outgoing) == 0 {
		o.Outgoing = [][]TaskId{}
	}
	o.Cond, o.Branches = window(&w.cond, t.Cond), t.Branches
}

// walk is the front end of a graph that does not write itself: each task
// Task answers is written as it arrives, into arrays sized for one input,
// slot and edge per task and grown past that.
func (w *PlanWriter) walk(g TaskGraph) error {
	ids := g.TaskIds()
	w.Grow(len(ids), len(ids), len(ids), len(ids))
	for _, id := range ids {
		t, ok := g.Task(id)
		if !ok {
			return fmt.Errorf("core: graph enumerates task %d but Task() does not return it", id)
		}
		if t.Id != id {
			return fmt.Errorf("core: Task(%d) returned a task with id %d", id, t.Id)
		}
		w.put(&t)
	}
	return nil
}

// plan is the back end: it checks and annotates what was written as the
// plan of g.
func (w *PlanWriter) plan(g TaskGraph) (*Plan, error) {
	w.unstage()
	n := len(w.tasks)
	if n != g.Size() {
		return nil, fmt.Errorf("core: graph Size()=%d but it has %d tasks", g.Size(), n)
	}
	ids := make([]TaskId, n)
	for i := range w.tasks {
		ids[i] = w.tasks[i].Id
		if i > 0 && ids[i-1] >= ids[i] {
			return nil, fmt.Errorf("core: task ids not strictly ascending at index %d (%d after %d)", i, ids[i], ids[i-1])
		}
		if ids[i] == ExternalInput {
			return nil, fmt.Errorf("core: graph uses the reserved ExternalInput id")
		}
	}
	p := &Plan{
		ids:       ids,
		dense:     n == 0 || ids[n-1] == TaskId(n-1),
		tasks:     w.tasks,
		callbacks: append([]CallbackId(nil), g.Callbacks()...),
		ext:       make([]int32, n),
		outOff:    make([]int32, n+1),
	}
	for i := range p.tasks {
		p.outOff[i+1] = p.outOff[i] + int32(p.tasks[i].OutDegree())
	}
	if err := p.link(); err != nil {
		return nil, err
	}
	if err := p.sweep(); err != nil {
		return nil, err
	}
	return p, nil
}

// link runs the per-task checks in ascending id order and resolves every
// out edge to its consumer's index.
func (p *Plan) link() error {
	p.outIdx = make([]int32, p.outOff[len(p.tasks)])
	for i := range p.tasks {
		t := &p.tasks[i]
		if !slices.Contains(p.callbacks, t.Callback) {
			return fmt.Errorf("core: task %d uses callback %d not listed in Callbacks()", t.Id, t.Callback)
		}
		if err := validateCond(t); err != nil {
			return err
		}
		for slot, src := range t.Incoming {
			if src == ExternalInput {
				p.ext[i]++
				continue
			}
			pi, ok := p.Index(src)
			if !ok {
				return fmt.Errorf("core: task %d input slot %d names unknown producer %d", t.Id, slot, src)
			}
			if !taskLists(p.tasks[pi].Outgoing, t.Id) {
				return fmt.Errorf("core: task %d expects input from %d, but %d does not list it as a consumer", t.Id, src, src)
			}
		}
		edges := p.outIdx[p.outOff[i]:p.outOff[i]:p.outOff[i+1]]
		for slot, consumers := range t.Outgoing {
			for _, c := range consumers {
				ci, ok := p.Index(c)
				if !ok {
					return fmt.Errorf("core: task %d output slot %d names unknown consumer %d", t.Id, slot, c)
				}
				if !slices.Contains(p.tasks[ci].Incoming, t.Id) {
					return fmt.Errorf("core: task %d sends to %d, but %d does not list it as a producer", t.Id, c, c)
				}
				edges = append(edges, int32(ci))
			}
		}
	}
	return nil
}

func taskLists(outgoing [][]TaskId, id TaskId) bool {
	for _, slot := range outgoing {
		if slices.Contains(slot, id) {
			return true
		}
	}
	return false
}

// sweep is Kahn's algorithm over the out edges. The forward pass yields a
// topological order and every task's height; replayed backwards the order
// yields the depths. Each pass visits every edge once. Tasks the forward
// pass cannot reach sit on or behind a cycle.
func (p *Plan) sweep() error {
	n := len(p.tasks)
	pending := make([]int32, n)
	for _, c := range p.outIdx {
		pending[c]++
	}
	p.height = make([]int32, n)
	order := make([]int32, 0, n)
	for i, k := range pending {
		if k == 0 {
			order = append(order, int32(i))
		}
	}
	for head := 0; head < len(order); head++ {
		i := order[head]
		p.height[i]++ // 1 + the tallest producer, accumulated below
		for _, c := range p.outIdx[p.outOff[i]:p.outOff[i+1]] {
			p.height[c] = max(p.height[c], p.height[i])
			if pending[c]--; pending[c] == 0 {
				order = append(order, c)
			}
		}
	}
	if len(order) != n {
		return p.cycle(pending)
	}

	p.depth = make([]int32, n)
	for k := n - 1; k >= 0; k-- {
		i := order[k]
		for _, c := range p.outIdx[p.outOff[i]:p.outOff[i+1]] {
			p.depth[i] = max(p.depth[i], p.depth[c])
		}
		p.depth[i]++
		p.max = max(p.max, int(p.depth[i]))
	}
	return nil
}

// cycle builds the error for a cyclic graph. pending marks the tasks Kahn's
// pass left over: each has at least one left-over producer, so stepping from
// the lowest such id to its first left-over producer, repeatedly, must
// revisit a task. The walk goes consumer to producer, so reading the path
// backwards from the revisited task yields the cycle in dataflow
// (producer -> consumer) order.
func (p *Plan) cycle(pending []int32) error {
	var path []int
	at := make([]int, len(p.tasks)) // 1 + position on path, 0 = not on it
	cur := 0
	for pending[cur] == 0 {
		cur++
	}
	for at[cur] == 0 {
		path = append(path, cur)
		at[cur] = len(path)
		for _, src := range p.tasks[cur].Incoming {
			if pi, ok := p.Index(src); ok && pending[pi] > 0 {
				cur = pi
				break
			}
		}
	}
	cyc := []TaskId{p.ids[cur]}
	for k := len(path) - 1; k >= at[cur]-1; k-- {
		cyc = append(cyc, p.ids[path[k]])
	}
	return &CycleError{Path: cyc}
}

// Size implements TaskGraph.
func (p *Plan) Size() int { return len(p.ids) }

// TaskIds implements TaskGraph. The slice is the plan's own: read-only.
func (p *Plan) TaskIds() []TaskId { return p.ids }

// Callbacks implements TaskGraph. The slice is the plan's own: read-only.
func (p *Plan) Callbacks() []CallbackId { return p.callbacks }

// Task implements TaskGraph. The task's slices alias the plan: read-only.
func (p *Plan) Task(id TaskId) (Task, bool) {
	i, ok := p.Index(id)
	if !ok {
		return Task{}, false
	}
	return p.tasks[i], true
}

// Index returns the dense index of a task id: its position in TaskIds.
func (p *Plan) Index(id TaskId) (int, bool) {
	if p.dense {
		return int(id), id < TaskId(len(p.ids))
	}
	i := sort.Search(len(p.ids), func(k int) bool { return p.ids[k] >= id })
	return i, i < len(p.ids) && p.ids[i] == id
}

// TaskAt returns the task at a dense index (read-only, like Task).
func (p *Plan) TaskAt(i int) Task { return p.tasks[i] }

// Consumers returns the dense indices of the tasks consuming the outputs of
// the task at index i: every output slot's consumer list, concatenated in
// slot order — Task.Outgoing flattened and resolved. Read-only.
func (p *Plan) Consumers(i int) []int32 { return p.outIdx[p.outOff[i]:p.outOff[i+1]] }

// Externals returns how many input slots of the task at index i are fed by
// Run's initial inputs.
func (p *Plan) Externals(i int) int { return int(p.ext[i]) }

// Levels partitions the graph into rounds of non-interfering tasks: level 0
// holds the tasks with no internal producers and each task sits one level
// above its highest producer (Height-1), ids ascending within a level.
func (p *Plan) Levels() [][]TaskId {
	levels := make([][]TaskId, p.max)
	for i, id := range p.ids {
		levels[p.height[i]-1] = append(levels[p.height[i]-1], id)
	}
	return levels
}

// Place compiles a task map against the plan — the shard of every task, by
// dense index — and is the map's validation: every task is assigned to
// exactly one shard of the map, and Ids and Shard agree. A GraphMap of a
// graph the plan's size is the plan's Spread: its rule is read off this
// plan, not off a second compile of the map's graph.
func (p *Plan) Place(m TaskMap) ([]int32, error) {
	if gm, ok := m.(*GraphMap); ok && gm.g != nil && gm.g.Size() == len(p.ids) {
		return p.Spread(gm.shards), nil
	}
	shardOf := make([]int32, len(p.ids))
	for i := range shardOf {
		shardOf[i] = -1
	}
	for s := ShardId(0); int(s) < m.ShardCount(); s++ {
		for _, id := range m.Ids(s) {
			i, ok := p.Index(id)
			if !ok {
				continue // a map may enumerate more ids than the graph has
			}
			if shardOf[i] >= 0 {
				return nil, &MapError{Id: id, Msg: "assigned to multiple shards", Shard: ShardId(shardOf[i])}
			}
			if got := m.Shard(id); got != s {
				return nil, &MapError{Id: id, Msg: "Ids/Shard disagree", Shard: got}
			}
			shardOf[i] = int32(s)
		}
	}
	for i, s := range shardOf {
		if s < 0 {
			return nil, &MapError{Id: p.ids[i], Msg: "not assigned to any shard"}
		}
	}
	return shardOf, nil
}

// Depth returns the downstream depth of a task (0 for ids outside the
// graph).
func (p *Plan) Depth(id TaskId) int {
	if i, ok := p.Index(id); ok {
		return int(p.depth[i])
	}
	return 0
}

// Height returns the upstream height of a task (0 for ids outside the
// graph); the task's level is Height-1.
func (p *Plan) Height(id TaskId) int {
	if i, ok := p.Index(id); ok {
		return int(p.height[i])
	}
	return 0
}

// Max returns the graph's critical-path length in tasks — the largest Depth.
func (p *Plan) Max() int { return p.max }

// Slack returns how many levels the task sits off a critical path: the
// critical-path length minus the longest source-to-sink chain through the
// task (Height + Depth - 1). Tasks with zero slack lie on a critical path; a
// task with slack s could be delayed s levels without stretching the
// schedule. Ids outside the graph have full slack.
func (p *Plan) Slack(id TaskId) int {
	i, ok := p.Index(id)
	if !ok {
		return p.max
	}
	return p.max - int(p.height[i]+p.depth[i]-1)
}
