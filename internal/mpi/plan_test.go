package mpi

import (
	"context"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/trace"
)

// emptyOutputs registers, for every callback of g, an implementation that
// emits one empty payload per output slot without consulting the graph —
// the runtime's own cost is all that is left.
func emptyOutputs(t testing.TB, g core.TaskGraph) func(core.CallbackRegistrar) error {
	p, err := core.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(_ []core.Payload, id core.TaskId) ([]core.Payload, error) {
		task, _ := p.Task(id)
		return make([]core.Payload, len(task.Outgoing)), nil
	}
	return func(c core.CallbackRegistrar) error {
		for _, cb := range g.Callbacks() {
			if err := c.RegisterCallback(cb, fn); err != nil {
				return err
			}
		}
		return nil
	}
}

func emptyInputs(leaves []core.TaskId) map[core.TaskId][]core.Payload {
	initial := make(map[core.TaskId][]core.Payload, len(leaves))
	for _, id := range leaves {
		initial[id] = []core.Payload{{}}
	}
	return initial
}

// coldRun is what a one-shot user pays per graph instance: a fresh
// controller, Initialize (the compile), registration and Run.
func coldRun(t testing.TB, g core.TaskGraph, tmap core.TaskMap, register func(core.CallbackRegistrar) error, initial map[core.TaskId][]core.Payload) {
	c := New(WithWorkers(2))
	if err := c.Initialize(g, tmap); err != nil {
		t.Fatal(err)
	}
	if err := register(c); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(initial); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllocationPins pins the allocation counts of the cold and warm
// paths on the dense rank loop. Parent-commit (674a5f1) figures, measured
// with this very harness, are quoted beside each pin.
func TestRunAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	// Cold Initialize+Run of the graph-scale workload's graph (16 382-task
	// k-way merge) on 2 ranks: parent 574 196 allocations = 35.05 per task,
	// now 106 642 = 6.51 per task, of which the graph's own Task answers are
	// 4.0. The pin is a quarter of the parent's.
	big, _ := graphs.NewKWayMerge(4096, 2)
	bigMap := core.NewGraphMap(2, big)
	bigReg := emptyOutputs(t, big)
	inputs := make([]map[core.TaskId][]core.Payload, 4)
	for i := range inputs {
		inputs[i] = emptyInputs(big.UpLeafIds())
	}
	k := 0
	perTask := testing.AllocsPerRun(len(inputs)-1, func() {
		coldRun(t, big, bigMap, bigReg, inputs[k])
		k++
	}) / float64(big.Size())
	if perTask > 8.75 {
		t.Errorf("cold Initialize+Run of %d tasks: %.2f allocations per task, pinned at 8.75 (parent 35.05)", big.Size(), perTask)
	}

	// reduction-64 on 2 ranks. Run on an initialized controller: parent
	// 2309, now 388. Warm Service.Submit (compile included): parent 3651,
	// now 776.
	small, _ := graphs.NewReduction(64, 2)
	smallMap := core.NewGraphMap(2, small)
	smallReg := emptyOutputs(t, small)
	c := New(WithWorkers(2))
	if err := c.Initialize(small, smallMap); err != nil {
		t.Fatal(err)
	}
	if err := smallReg(c); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := c.Run(emptyInputs(small.LeafIds())); err != nil {
			t.Fatal(err)
		}
	}); n > 450 {
		t.Errorf("reduction-64 Run: %v allocations, pinned at 450 (parent 2309)", n)
	}
	svc, err := NewService(2, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if n := testing.AllocsPerRun(50, func() {
		sub := Submission{Graph: small, Register: smallReg, Initial: emptyInputs(small.LeafIds())}
		if _, _, err := svc.Submit(context.Background(), sub); err != nil {
			t.Fatal(err)
		}
	}); n > 850 {
		t.Errorf("reduction-64 warm Submit: %v allocations, pinned at 850 (parent 3651)", n)
	}
}

// TestTracedRunAllocationPins pins what tracing adds per task: the same
// reduction-64 Run on 2 ranks on an initialized controller, once plain and
// once with a trace.Recorder as the Observer (reset before each run). With
// the recorder joining a Wrap'd callback and four observer calls through
// four per-task maps it added 1.44 allocations per task; one event appended
// to a reused slice adds 0.00.
func TestTracedRunAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g, _ := graphs.NewReduction(64, 2)
	register := emptyOutputs(t, g)
	rec := trace.NewRecorder()
	allocs := func(opts ...Option) float64 {
		c := New(append(opts, WithWorkers(2))...)
		if err := c.Initialize(g, core.NewGraphMap(2, g)); err != nil {
			t.Fatal(err)
		}
		if err := register(c); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			rec.Reset()
			if _, err := c.Run(emptyInputs(g.LeafIds())); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := allocs()
	perTask := (allocs(WithObserver(rec)) - plain) / float64(g.Size())
	t.Logf("tracing adds %.2f allocations per task", perTask)
	if perTask > 0.1 {
		t.Errorf("tracing adds %.2f allocations per task, pinned at 0.1 (was 1.44)", perTask)
	}
}

// BenchmarkColdRun16k is the graph-scale workload without its harness: a
// cold Initialize+Run of the 16 382-task k-way merge on 2 ranks, callbacks
// costing nothing.
func BenchmarkColdRun16k(b *testing.B) {
	g, _ := graphs.NewKWayMerge(4096, 2)
	tmap := core.NewGraphMap(2, g)
	register := emptyOutputs(b, g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coldRun(b, g, tmap, register, emptyInputs(g.UpLeafIds()))
	}
}
