package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// named is one graph of the equivalence suite.
type named struct {
	name string
	g    core.TaskGraph
}

func must[G core.TaskGraph](g G, err error) core.TaskGraph {
	if err != nil {
		panic(err)
	}
	return g
}

// prototypes are the seven graphs of internal/graphs at the sizes whose
// fingerprints are pinned below.
func prototypes() []named {
	return []named{
		{"binaryswap-16", must(graphs.NewBinarySwap(16))},
		{"broadcast-27-3", must(graphs.NewBroadcast(27, 3))},
		{"kwaymerge-64-4", must(graphs.NewKWayMerge(64, 4))},
		{"neighbor2d-5x4", must(graphs.NewNeighbor2D(5, 4))},
		{"gather-9", must(graphs.NewGather(9))},
		{"neighbor3d-3x4x2", must(graphs.NewNeighbor3D(3, 4, 2))},
		{"reduction-64-2", must(graphs.NewReduction(64, 2))},
	}
}

func suite(t *testing.T) []named {
	t.Helper()
	all := prototypes()
	for _, leafs := range []int{1, 2, 8, 32} {
		all = append(all, named{fmt.Sprintf("kwaymerge-%d-2", leafs), must(graphs.NewKWayMerge(leafs, 2))})
	}
	all = append(all,
		named{"reduction-81-3", must(graphs.NewReduction(81, 3))},
		named{"broadcast-16-4", must(graphs.NewBroadcast(16, 4))},
		named{"binaryswap-4", must(graphs.NewBinarySwap(4))},
		named{"neighbor2d-1x1", must(graphs.NewNeighbor2D(1, 1))},
		named{"gather-1", must(graphs.NewGather(1))},
	)

	// A Builder composition: prefixed, hence non-contiguous, ids.
	red, bc := must(graphs.NewReduction(4, 2)).(*graphs.Reduction), must(graphs.NewBroadcast(4, 2)).(*graphs.Broadcast)
	composed, err := graphs.NewBuilder().
		Add(1, red, map[core.CallbackId]core.CallbackId{0: 0, 1: 1, 2: 2}).
		Add(2, bc, map[core.CallbackId]core.CallbackId{0: 3, 1: 4, 2: 5}).
		Connect(graphs.Pid(1, red.Root()), 0, graphs.Pid(2, bc.Root()), 0).
		Graph()
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, named{"builder-reduction+broadcast", composed})

	// An Iterate unroll: iteration-prefixed ids, Cond/Branches on the
	// decision tasks.
	body := core.NewExplicitGraph([]core.Task{{Id: 0, Callback: 7, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{nil}}})
	loop, err := core.Iterate(body, func(int, map[core.TaskId][]core.Payload) (bool, error) { return true, nil },
		core.MaxIterations(4), core.Gate(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, named{"iterate-4", loop})

	for seed := int64(1); seed <= 240; seed++ {
		all = append(all, named{fmt.Sprintf("random-%d", seed), check.RandomDAG(1+int(seed%40), seed)})
	}
	return all
}

// oracle is the naive recursive critical-path analysis the plan's sweep is
// checked against.
type oracle struct {
	g             core.TaskGraph
	depth, height map[core.TaskId]int
}

func (o *oracle) depthOf(id core.TaskId) int {
	if d, ok := o.depth[id]; ok {
		return d
	}
	t, _ := o.g.Task(id)
	d := 0
	for _, c := range t.Consumers() {
		if cd := o.depthOf(c); cd > d {
			d = cd
		}
	}
	o.depth[id] = d + 1
	return d + 1
}

func (o *oracle) heightOf(id core.TaskId) int {
	if h, ok := o.height[id]; ok {
		return h
	}
	t, _ := o.g.Task(id)
	h := 0
	for _, p := range t.Producers() {
		if ph := o.heightOf(p); ph > h {
			h = ph
		}
	}
	o.height[id] = h + 1
	return h + 1
}

// counting counts the questions a TaskGraph is asked.
type counting struct {
	core.TaskGraph
	tasks, ids int
}

func (c *counting) Task(id core.TaskId) (core.Task, bool) { c.tasks++; return c.TaskGraph.Task(id) }
func (c *counting) TaskIds() []core.TaskId                { c.ids++; return c.TaskGraph.TaskIds() }

// TestPlanIsTheGraph: a compiled plan answers every TaskGraph question as
// the graph does, fingerprints identically, and its levels, depths, heights
// and slack equal the naive recursive definitions.
func TestPlanIsTheGraph(t *testing.T) {
	for _, c := range suite(t) {
		g := &counting{TaskGraph: c.g}
		p, err := core.Compile(g)
		if err != nil {
			t.Fatalf("%s: Compile: %v", c.name, err)
		}
		if g.tasks != c.g.Size() || g.ids != 1 {
			t.Errorf("%s: Compile asked Task %d times and TaskIds %d times for %d tasks", c.name, g.tasks, g.ids, c.g.Size())
		}
		if again, _ := core.Compile(p); again != p {
			t.Errorf("%s: Compile(plan) != plan", c.name)
		}
		ids := c.g.TaskIds()
		if p.Size() != c.g.Size() || !reflect.DeepEqual(p.TaskIds(), ids) {
			t.Fatalf("%s: Size/TaskIds differ", c.name)
		}
		if got, want := p.Callbacks(), c.g.Callbacks(); len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("%s: Callbacks = %v, want %v", c.name, got, want)
		}
		cbs := c.g.Callbacks()
		if got, want := core.GraphFingerprint(p, cbs), core.GraphFingerprint(c.g, cbs); got != want {
			t.Errorf("%s: fingerprint %s, graph's is %s", c.name, got, want)
		}

		o := &oracle{g: c.g, depth: map[core.TaskId]int{}, height: map[core.TaskId]int{}}
		max := 0
		for _, id := range ids {
			if d := o.depthOf(id); d > max {
				max = d
			}
		}
		if p.Max() != max {
			t.Errorf("%s: Max = %d, want %d", c.name, p.Max(), max)
		}
		levels := make([][]core.TaskId, max)
		for i, id := range ids {
			want, _ := c.g.Task(id)
			got, ok := p.Task(id)
			if !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Task(%d) = %v, want %v", c.name, id, got, want)
			}
			if at, ok := p.Index(id); !ok || at != i || !reflect.DeepEqual(p.TaskAt(i), want) {
				t.Fatalf("%s: Index(%d) = %d,%v, want %d", c.name, id, at, ok, i)
			}
			d, h := o.depthOf(id), o.heightOf(id)
			if p.Depth(id) != d || p.Height(id) != h || p.Slack(id) != max-(h+d-1) {
				t.Errorf("%s: task %d depth/height/slack = %d/%d/%d, want %d/%d/%d",
					c.name, id, p.Depth(id), p.Height(id), p.Slack(id), d, h, max-(h+d-1))
			}
			levels[h-1] = append(levels[h-1], id)
			var flat []core.TaskId
			for _, slot := range want.Outgoing {
				flat = append(flat, slot...)
			}
			ext := 0
			for _, src := range want.Incoming {
				if src == core.ExternalInput {
					ext++
				}
			}
			if p.Externals(i) != ext || len(p.Consumers(i)) != len(flat) {
				t.Fatalf("%s: task %d externals/consumers = %d/%d, want %d/%d", c.name, id, p.Externals(i), len(p.Consumers(i)), ext, len(flat))
			}
			for k, ci := range p.Consumers(i) {
				if ids[ci] != flat[k] {
					t.Fatalf("%s: task %d consumer %d resolves to %d, want %d", c.name, id, k, ids[ci], flat[k])
				}
			}
		}
		if !reflect.DeepEqual(p.Levels(), levels) {
			t.Errorf("%s: Levels = %v, want %v", c.name, p.Levels(), levels)
		}
		if got, err := core.Levels(c.g); err != nil || !reflect.DeepEqual(got, levels) {
			t.Errorf("%s: core.Levels = %v, %v", c.name, got, err)
		}

		// Ids outside the graph.
		out := ids[len(ids)-1] + 1
		if _, ok := p.Task(out); ok {
			t.Errorf("%s: Task(%d) found a task outside the graph", c.name, out)
		}
		if _, ok := p.Index(out); ok || p.Depth(out) != 0 || p.Height(out) != 0 || p.Slack(out) != max {
			t.Errorf("%s: id %d outside the graph has index/depth/height/slack", c.name, out)
		}
	}
}

// TestPrototypeFingerprintsPinned pins the v2 fingerprint encoding: the hex
// values were captured before plans existed (commit 674a5f1), and wire
// handshakes and journals of mixed-version fleets depend on them.
func TestPrototypeFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"binaryswap-16":    "e420092a74dcc0e0afb4e5eebdbc532d9e272bb798c8976a449409eb8e93ac1c",
		"broadcast-27-3":   "ad2224e849e968f7c012c8e7dedd34eee1e5ebd346d731a532747da54fac18c4",
		"kwaymerge-64-4":   "5258d4a07e800cbd5e91d607e2c31dfe7f6dcc0bf393a8308ba282ed3125053d",
		"neighbor2d-5x4":   "146d5b99ffd69472cfece1bb446c75bca96760dc868bb5c554cfa09ee6920878",
		"gather-9":         "af60a5620b01763c82909a90bef758d4991cf19d99ee9a74907da53e1df1789d",
		"neighbor3d-3x4x2": "22b259f2f629439acd4fd8ff64b0afb2557c8a0bb850ac1874ffb1e50e287974",
		"reduction-64-2":   "daa4d45cbd586e2ef6c602b6d92f95ee467a0b915cc3f37074ee2d7b87718b62",
	}
	for _, c := range prototypes() {
		p, err := core.Compile(c.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []core.TaskGraph{c.g, p} {
			if got := core.GraphFingerprint(g, g.Callbacks()).String(); got != want[c.name] {
				t.Errorf("%s (%T): fingerprint %s, pinned %s", c.name, g, got, want[c.name])
			}
		}
	}
}

// TestCompileReportsLowestDefect: a graph with several defects reports the
// lowest id's, every time. (Validate used to range over a map, so which of
// the three it reported changed from run to run.)
func TestCompileReportsLowestDefect(t *testing.T) {
	tasks := make([]core.Task, 10)
	for i := range tasks {
		tasks[i] = core.Task{Id: core.TaskId(i), Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{}}}
	}
	tasks[3].Outgoing = [][]core.TaskId{{99}} // unknown consumer
	tasks[5].Branches = 2                     // branches without a Cond assignment
	tasks[7].Incoming = []core.TaskId{6}      // 6 does not list 7 as a consumer
	g := core.NewExplicitGraph(tasks)
	for i := 0; i < 100; i++ {
		err := core.Validate(g)
		if err == nil || !strings.Contains(err.Error(), "task 3 output slot 0 names unknown consumer 99") {
			t.Fatalf("run %d: Validate = %v, want task 3's unknown consumer", i, err)
		}
	}
}

// TestPlanAllocationPins: answering out of the plan, and the dense
// readiness bookkeeping on it, allocate nothing; compiling allocates a
// constant number of arrays, beyond what the graph's own Task answers cost
// when it is walked.
func TestPlanAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := must(graphs.NewKWayMerge(4096, 2))
	ids := g.TaskIds()
	p, err := core.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := core.Compile(check.RandomDAG(40, 2)) // gapped ids: Index is a binary search
	if err != nil {
		t.Fatal(err)
	}
	var sink int
	answers := func(p *core.Plan) func() {
		ids := p.TaskIds()
		k := 0
		return func() {
			id := ids[k%len(ids)]
			k++
			t, _ := p.Task(id)
			i, _ := p.Index(id)
			sink += len(t.Incoming) + i + p.Depth(id) + p.Height(id) + p.Slack(id) + len(p.Consumers(i)) + p.Externals(i) + len(p.TaskAt(i).Outgoing)
		}
	}
	for name, p := range map[string]*core.Plan{"dense": p, "sparse": sparse} {
		if n := testing.AllocsPerRun(200, answers(p)); n != 0 {
			t.Errorf("%s plan: Task/Index/Depth/Height/Slack/Consumers allocate %v per call", name, n)
		}
	}

	// Deliver + Take along the up-sweep: task k's two inputs arrive, then it
	// is taken.
	st := core.NewDataflowState(p, nil)
	k := g.Size()/2 - 1 // the up-sweep root; each run retires the next lower task
	payload := core.Buffer([]byte{1})
	if n := testing.AllocsPerRun(200, func() {
		t := p.TaskAt(k)
		for _, src := range t.Incoming {
			if err := st.Deliver(k, src, payload); err != nil {
				panic(err)
			}
		}
		if in, ok := st.Take(k); !ok || len(in) != len(t.Incoming) {
			panic("task not ready after all deliveries")
		}
		k--
	}); n != 0 {
		t.Errorf("DataflowState Deliver/Take allocate %v per task", n)
	}

	// Compile of a graph that writes itself: a constant, whatever its size
	// (parent: 65 544 for the k-way merge, 4.0 per task for its Task
	// answers).
	if n := testing.AllocsPerRun(3, func() { core.Compile(g) }); n > 64 {
		t.Errorf("Compile of the %d-task k-way merge allocates %v, pinned at 64", len(ids), n)
	}
	// Each prototype sizes its writer exactly: writing its plan allocates
	// the writer's four arrays and nothing more.
	w := new(core.PlanWriter)
	for _, src := range []core.PlanSource{
		must(graphs.NewBinarySwap(1024)).(core.PlanSource), must(graphs.NewBroadcast(729, 3)).(core.PlanSource),
		must(graphs.NewGather(8)).(core.PlanSource), must(graphs.NewKWayMerge(1024, 4)).(core.PlanSource),
		must(graphs.NewNeighbor2D(40, 30)).(core.PlanSource), must(graphs.NewNeighbor3D(12, 10, 8)).(core.PlanSource),
		must(graphs.NewReduction(1024, 4)).(core.PlanSource),
	} {
		if n := testing.AllocsPerRun(3, func() { *w = core.PlanWriter{}; src.WritePlan(w) }); n > 4 {
			t.Errorf("%T.WritePlan of %d tasks allocates %v, want the writer's 4 arrays", src, src.Size(), n)
		}
	}

	// Compile through the generic walk: the graph's own answers, plus a
	// constant.
	walked := struct{ core.TaskGraph }{g}
	own := testing.AllocsPerRun(3, func() {
		for _, id := range ids {
			t, _ := g.Task(id)
			sink += len(t.Incoming)
		}
	})
	if n := testing.AllocsPerRun(3, func() { core.Compile(walked) }); n > own+64 {
		t.Errorf("Compile of %d tasks allocates %v; the graph's %d Task answers alone cost %v, and the plan may add 64", len(ids), n, len(ids), own)
	}
}

// BenchmarkCompile is the cold cost every Initialize pays: one traversal of
// the 16 382-task k-way merge of the graph-scale workload.
func BenchmarkCompile(b *testing.B) {
	g := must(graphs.NewKWayMerge(4096, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(g); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFingerprintGolden pins GraphFingerprint's digest, word for word, on
// the graph-scale k-way merge (with its callbacks registered), a reduction
// (structure only), a graph with conditional edges and an iterative graph.
// The hex values were computed by the one-Write-per-word encoder; any
// rewrite of the encoder must reproduce them.
func TestFingerprintGolden(t *testing.T) {
	big := must(graphs.NewKWayMerge(4096, 2))
	router := core.NewExplicitGraph([]core.Task{
		{Id: 0, Callback: 1, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{1}, {2}, {1, 2}}, Cond: []int{0, 1, -1}, Branches: 2},
		{Id: 1, Callback: 2, Incoming: []core.TaskId{0, 0}, Outgoing: [][]core.TaskId{nil}},
		{Id: 2, Callback: 2, Incoming: []core.TaskId{0, 0}, Outgoing: [][]core.TaskId{{}}},
	})
	body := core.NewExplicitGraph([]core.Task{{Id: 0, Callback: 7, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{nil}}})
	loop, err := core.Iterate(body, func(int, map[core.TaskId][]core.Payload) (bool, error) { return true, nil },
		core.MaxIterations(4), core.Gate(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    core.TaskGraph
		reg  []core.CallbackId
		want string
	}{
		{"kwaymerge-4096-2", big, big.Callbacks(), "2160a557ecd278178e3b5e3c1c71b4c8383bfaecdf372dd978353603a337e7c8"},
		{"reduction-64-4", must(graphs.NewReduction(64, 4)), nil, "0d3d3410c9e538326ddb9df1b1e44fa770fa325f5cb6faaa66035ca2cdad33f9"},
		{"cond-router", router, []core.CallbackId{2, 1}, "ea1e758d87d07e391ed1047fb31c9ab45a940f89210561638874ea158110ed13"},
		{"iterate-4", loop, nil, "ad8f79a476d68654b06418683edb6911d710b69b6bd4f9c53bd3f5670136baf2"},
	} {
		if got := core.GraphFingerprint(c.g, c.reg).String(); got != c.want {
			t.Errorf("%s: fingerprint %s, pinned %s", c.name, got, c.want)
		}
	}
}

// BenchmarkCompileGeneric is BenchmarkCompile through the generic walk: the
// same graph with its WritePlan hidden, as a user graph is compiled.
func BenchmarkCompileGeneric(b *testing.B) {
	g := struct{ core.TaskGraph }{must(graphs.NewKWayMerge(4096, 2))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint is the digest every wire rank computes at set-up, of
// the plan of the graph-scale k-way merge.
func BenchmarkFingerprint(b *testing.B) {
	g := must(graphs.NewKWayMerge(4096, 2))
	p, err := core.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GraphFingerprint(p, g.Callbacks())
	}
}

// replayed writes its plan through the exported PlanWriter calls alone,
// never growing the writer, from its graph's Task answers.
type replayed struct{ core.TaskGraph }

func (g replayed) WritePlan(w *core.PlanWriter) {
	for _, id := range g.TaskIds() {
		t, _ := g.Task(id)
		w.Task(t.Id, t.Callback, t.Incoming...)
		for _, slot := range t.Outgoing {
			w.Slot(slot...)
		}
	}
}

// TestPlanWriterWithoutGrow: a PlanSource that never calls Grow still
// writes the plan the generic walk compiles.
func TestPlanWriterWithoutGrow(t *testing.T) {
	for _, c := range prototypes() {
		p, err := core.Compile(replayed{c.g})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		q, err := core.Compile(struct{ core.TaskGraph }{c.g})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range p.TaskIds() {
			if a, b := p.TaskAt(i), q.TaskAt(i); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: task %d written %v, walked %v", c.name, i, a, b)
			}
		}
	}
}
