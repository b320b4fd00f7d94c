package mpi

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// countingSum wraps sumCB with an execution counter, so resume tests can
// assert which tasks actually ran their callbacks.
func countingSum(execs *atomic.Int64) core.Callback {
	inner := sumCB(1)
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		execs.Add(1)
		return inner(in, id)
	}
}

func newJournaledController(t *testing.T, g core.TaskGraph, m core.TaskMap, dir string, execs *atomic.Int64) *Controller {
	t.Helper()
	c := New(WithJournal(dir))
	if err := c.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	for _, cb := range g.Callbacks() {
		if err := c.RegisterCallback(cb, countingSum(execs)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestJournaledRunResumes runs a reduction with a journal, then runs a
// fresh controller over the same directory: every task must replay from
// the journal (zero callback executions) with byte-identical sinks.
func TestJournaledRunResumes(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	m := core.NewModuloMap(3, g.Size())
	dir := t.TempDir()

	var execs atomic.Int64
	c1 := newJournaledController(t, g, m, dir, &execs)
	want, err := c1.Run(reductionInputs(g))
	if err != nil {
		t.Fatal(err)
	}
	if got := int(execs.Load()); got != g.Size() {
		t.Fatalf("first run executed %d callbacks, want %d", got, g.Size())
	}
	js := c1.JournalStats()
	if js.Restored != 0 || js.Executed != g.Size() || js.Replayed != 0 || js.StoreErrors != 0 {
		t.Fatalf("first run stats %+v", js)
	}

	execs.Store(0)
	c2 := newJournaledController(t, g, m, dir, &execs)
	got, err := c2.Run(reductionInputs(g))
	if err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("resumed run executed %d callbacks, want 0 (all replayed)", n)
	}
	js = c2.JournalStats()
	if js.Restored != g.Size() || js.Replayed != g.Size() || js.Executed != 0 {
		t.Fatalf("resumed run stats %+v", js)
	}
	check.Sinks(t, want, got)
}

// TestJournaledRunPartialResume deletes one rank's journal between runs:
// only that rank's tasks may re-execute, everything else replays.
func TestJournaledRunPartialResume(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	const shards = 3
	m := core.NewModuloMap(shards, g.Size())
	dir := t.TempDir()

	var execs atomic.Int64
	c1 := newJournaledController(t, g, m, dir, &execs)
	want, err := c1.Run(reductionInputs(g))
	if err != nil {
		t.Fatal(err)
	}

	const lost = 1
	if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("rank-%d", lost))); err != nil {
		t.Fatal(err)
	}
	execs.Store(0)
	c2 := newJournaledController(t, g, m, dir, &execs)
	got, err := c2.Run(reductionInputs(g))
	if err != nil {
		t.Fatal(err)
	}
	wantExecs := len(m.Ids(core.ShardId(lost)))
	if n := int(execs.Load()); n != wantExecs {
		t.Fatalf("partial resume executed %d callbacks, want %d (rank %d's tasks)", n, wantExecs, lost)
	}
	js := c2.JournalStats()
	if js.Executed != wantExecs || js.Replayed != g.Size()-wantExecs {
		t.Fatalf("partial resume stats %+v, want executed=%d replayed=%d", js, wantExecs, g.Size()-wantExecs)
	}
	check.Sinks(t, want, got)
}

// TestJournaledRunRankResumes drives the single-rank entry point (the
// multi-process path) with a journal: independent RunRank calls over a
// shared transport journal per rank, and a rerun replays everything.
func TestJournaledRunRankResumes(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	const ranks = 4
	m := core.NewModuloMap(ranks, g.Size())
	dir := t.TempDir()

	runAll := func(execs *atomic.Int64) map[core.TaskId][]core.Payload {
		t.Helper()
		c := newJournaledController(t, g, m, dir, execs)
		fab := fabric.New(ranks)
		parts := make([]map[core.TaskId][]core.Payload, ranks)
		for id, ps := range reductionInputs(g) {
			r := int(m.Shard(id))
			if parts[r] == nil {
				parts[r] = make(map[core.TaskId][]core.Payload)
			}
			parts[r][id] = ps
		}
		results := make([]map[core.TaskId][]core.Payload, ranks)
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				results[r], errs[r] = c.RunRank(r, fab, parts[r])
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		merged := make(map[core.TaskId][]core.Payload)
		for _, res := range results {
			for id, ps := range res {
				merged[id] = append(merged[id], ps...)
			}
		}
		return merged
	}

	var execs atomic.Int64
	want := runAll(&execs)
	if got := int(execs.Load()); got != g.Size() {
		t.Fatalf("first run executed %d callbacks, want %d", got, g.Size())
	}
	execs.Store(0)
	got := runAll(&execs)
	if n := execs.Load(); n != 0 {
		t.Fatalf("resumed RunRank executed %d callbacks, want 0", n)
	}
	check.Sinks(t, want, got)
}

// TestWireOptionsCarriesFingerprint checks the controller's wire template
// carries the graph fingerprint.
func TestWireOptionsCarriesFingerprint(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	m := core.NewModuloMap(2, g.Size())
	c := New()
	if err := c.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	for _, cb := range g.Callbacks() {
		if err := c.RegisterCallback(cb, sumCB(1)); err != nil {
			t.Fatal(err)
		}
	}
	wo := c.WireOptions()
	if wo.Fingerprint != c.Fingerprint() || wo.Fingerprint == (core.Fingerprint{}) {
		t.Fatalf("fingerprint not plumbed: %+v", wo.Fingerprint)
	}
}

// countingObj is a serializable object that counts its serializations.
type countingObj struct{ calls int }

func (o *countingObj) Serialize() []byte { o.calls++; return []byte{1, 2, 3} }

// sliceObj is a serializable object whose dynamic type == cannot compare.
type sliceObj []byte

func (s sliceObj) Serialize() []byte { return append([]byte(nil), s...) }

// TestRecordOutputsSerializesSharedObjectOnce: a task emitting one object
// in two slots (a non-root merge-tree join) is recorded with one
// serialization, one buffer in both slots; distinct objects, buffers and
// values of an uncomparable type are recorded apart.
func TestRecordOutputsSerializesSharedObjectOnce(t *testing.T) {
	led := core.NewLedger()
	obj, other := &countingObj{}, &countingObj{}
	recordOutputs(led, core.Task{Id: 7}, []core.Payload{core.Object(obj), core.Object(obj), core.Object(other), u64(5), core.Object(sliceObj{9}), core.Object(sliceObj{9})})
	outs, ok := led.Outputs(7)
	if !ok || len(outs) != 6 {
		t.Fatalf("recorded %d slot(s), ok=%v", len(outs), ok)
	}
	if obj.calls != 1 || other.calls != 1 {
		t.Errorf("Serialize calls: shared object %d, other %d; want 1 each", obj.calls, other.calls)
	}
	if &outs[0][0] != &outs[1][0] {
		t.Error("the shared object's slots hold two buffers")
	}
	if &outs[0][0] == &outs[2][0] || &outs[4][0] == &outs[5][0] {
		t.Error("distinct objects share a buffer")
	}
	if outs[3][0] != 5 || outs[5][0] != 9 {
		t.Errorf("slots 3 and 5 hold %v and %v", outs[3], outs[5])
	}
}
