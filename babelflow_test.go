package babelflow_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	babelflow "github.com/babelflow/babelflow-go"
)

func u64(v uint64) babelflow.Payload {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return babelflow.Buffer(b)
}

func sum(in []babelflow.Payload, id babelflow.TaskId) ([]babelflow.Payload, error) {
	var s uint64
	for _, p := range in {
		s += binary.LittleEndian.Uint64(p.Data)
	}
	return []babelflow.Payload{u64(s)}, nil
}

// TestListing1Pattern exercises the public API exactly as the paper's
// Listing 1: build a reduction, pick a task map, choose a controller,
// register the callbacks by graph position, run.
func TestListing1Pattern(t *testing.T) {
	controllers := map[string]func(g babelflow.TaskGraph) babelflow.Controller{
		"serial": func(babelflow.TaskGraph) babelflow.Controller { return babelflow.NewSerial() },
		"mpi":    func(babelflow.TaskGraph) babelflow.Controller { return babelflow.NewMPI() },
		"charm": func(babelflow.TaskGraph) babelflow.Controller {
			return babelflow.NewCharm(babelflow.CharmOptions{PEs: 3})
		},
		"legion-spmd": func(babelflow.TaskGraph) babelflow.Controller {
			return babelflow.NewLegionSPMD(babelflow.LegionOptions{})
		},
		"legion-il": func(babelflow.TaskGraph) babelflow.Controller {
			return babelflow.NewLegionIndexLaunch(babelflow.LegionOptions{})
		},
	}
	graph, err := babelflow.NewReduction(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	taskMap := babelflow.NewModuloMap(3, graph.Size())
	for name, build := range controllers {
		t.Run(name, func(t *testing.T) {
			c := build(graph)
			if err := c.Initialize(graph, taskMap); err != nil {
				t.Fatal(err)
			}
			for _, cid := range graph.Callbacks() {
				if err := c.RegisterCallback(cid, sum); err != nil {
					t.Fatal(err)
				}
			}
			initial := make(map[babelflow.TaskId][]babelflow.Payload)
			var want uint64
			for i, id := range graph.LeafIds() {
				initial[id] = []babelflow.Payload{u64(uint64(i + 1))}
				want += uint64(i + 1)
			}
			out, err := c.Run(initial)
			if err != nil {
				t.Fatal(err)
			}
			got := binary.LittleEndian.Uint64(out[graph.Root()][0].Data)
			if got != want {
				t.Errorf("root = %d, want %d", got, want)
			}
		})
	}
}

func TestFacadeGraphConstructors(t *testing.T) {
	if _, err := babelflow.NewBroadcast(8, 2); err != nil {
		t.Error(err)
	}
	if _, err := babelflow.NewBinarySwap(8); err != nil {
		t.Error(err)
	}
	if _, err := babelflow.NewKWayMerge(8, 2); err != nil {
		t.Error(err)
	}
	if _, err := babelflow.NewNeighbor2D(3, 3); err != nil {
		t.Error(err)
	}
	g, _ := babelflow.NewReduction(4, 2)
	if err := babelflow.Validate(g); err != nil {
		t.Error(err)
	}
	levels, err := babelflow.Levels(g)
	if err != nil || len(levels) != 3 {
		t.Errorf("Levels = %d, %v", len(levels), err)
	}
	if babelflow.NewBlockMap(2, 7).ShardCount() != 2 {
		t.Error("NewBlockMap broken")
	}
	if babelflow.NewGraphMap(2, g).ShardCount() != 2 {
		t.Error("NewGraphMap broken")
	}
}

func TestFacadeWriteDot(t *testing.T) {
	g, _ := babelflow.NewReduction(4, 2)
	var b strings.Builder
	if err := babelflow.WriteDot(&b, g, babelflow.DotOptions{Name: "r"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "digraph") {
		t.Error("missing digraph header")
	}
}

func TestFacadeBuilder(t *testing.T) {
	red, _ := babelflow.NewReduction(2, 2)
	g, err := babelflow.NewGraphBuilder().Add(0, red, nil).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != red.Size() {
		t.Errorf("Size = %d", g.Size())
	}
}

func ExampleNewSerial() {
	graph, _ := babelflow.NewReduction(4, 2)
	c := babelflow.NewSerial()
	c.Initialize(graph, nil)
	for _, cid := range graph.Callbacks() {
		c.RegisterCallback(cid, sum)
	}
	initial := make(map[babelflow.TaskId][]babelflow.Payload)
	for _, id := range graph.LeafIds() {
		initial[id] = []babelflow.Payload{u64(10)}
	}
	out, _ := c.Run(initial)
	fmt.Println(binary.LittleEndian.Uint64(out[graph.Root()][0].Data))
	// Output: 40
}

// TestFacadeInSituAndTrace exercises the in-situ group and the trace
// recorder through the public API.
func TestFacadeInSituAndTrace(t *testing.T) {
	graph, _ := babelflow.NewReduction(4, 2)
	m := babelflow.NewModuloMap(2, graph.Size())

	rec := babelflow.NewTraceRecorder()
	group, err := babelflow.NewInSituGroup(graph, m, babelflow.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	for _, cid := range graph.Callbacks() {
		group.RegisterCallback(cid, sum)
	}

	// Split the leaf inputs by owning rank and run the two shards
	// concurrently, as a host simulation would.
	perRank := map[int]map[babelflow.TaskId][]babelflow.Payload{0: {}, 1: {}}
	for i, id := range graph.LeafIds() {
		perRank[int(m.Shard(id))][id] = []babelflow.Payload{u64(uint64(i + 1))}
	}
	type result struct {
		out map[babelflow.TaskId][]babelflow.Payload
		err error
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			shard, err := group.Shard(rank)
			if err != nil {
				results[rank] = result{err: err}
				return
			}
			out, err := shard.Run(perRank[rank])
			results[rank] = result{out: out, err: err}
		}(r)
	}
	wg.Wait()
	for r, res := range results {
		if res.err != nil {
			t.Fatalf("rank %d: %v", r, res.err)
		}
	}
	// Root (task 0) lives on rank 0: 1+2+3+4 = 10.
	got := binary.LittleEndian.Uint64(results[0].out[0][0].Data)
	if got != 10 {
		t.Errorf("in-situ root = %d, want 10", got)
	}

	spans := rec.Spans()
	if len(spans) != graph.Size() {
		t.Fatalf("trace spans = %d, want %d", len(spans), graph.Size())
	}
	summary, err := babelflow.SummarizeTrace(graph, spans)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Tasks != graph.Size() || summary.CriticalPath <= 0 {
		t.Errorf("summary = %+v", summary)
	}
	var csv strings.Builder
	if err := babelflow.WriteTraceCSV(&csv, spans); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "task,callback,shard") {
		t.Error("CSV header missing")
	}
}
