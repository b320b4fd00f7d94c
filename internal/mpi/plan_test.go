package mpi

import (
	"context"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
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
// controller, Initialize (the compile), registration and Run. It returns
// the run's inter-rank traffic.
func coldRun(t testing.TB, g core.TaskGraph, tmap core.TaskMap, register func(core.CallbackRegistrar) error, initial map[core.TaskId][]core.Payload) fabric.Stats {
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
	return c.Stats()
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
	// 106 642 = 6.51 per task with a closure per dispatched task, now 5.52
	// with one runner per rank submitting plan indices; the graph's own Task
	// answers are 4.0 of them.
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
	if perTask > 6.0 {
		t.Errorf("cold Initialize+Run of %d tasks: %.2f allocations per task, pinned at 6.0 (parent 35.05)", big.Size(), perTask)
	}

	// reduction-64 on 2 ranks. Run on an initialized controller: parent
	// 2309, 386 with a closure per dispatched task, now 264. Warm
	// Service.Submit (compile included): parent 3651, 783 with a closure per
	// task, now 663.
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
	}); n > 300 {
		t.Errorf("reduction-64 Run: %v allocations, pinned at 300 (parent 2309)", n)
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
	}); n > 750 {
		t.Errorf("reduction-64 warm Submit: %v allocations, pinned at 750 (parent 3651)", n)
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
// costing nothing — on the default GraphMap, which keeps subtrees on one
// rank, and on ids dealt round-robin. Each reports the inter-rank messages
// of one run (msgs/op), the cross-rank edge share beside the time.
func BenchmarkColdRun16k(b *testing.B) {
	g, _ := graphs.NewKWayMerge(4096, 2)
	register := emptyOutputs(b, g)
	for _, bc := range []struct {
		name string
		tmap core.TaskMap
	}{
		{"default", core.NewGraphMap(2, g)},
		{"roundrobin", core.NewListMap(2, g.TaskIds())},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs uint64
			for i := 0; i < b.N; i++ {
				msgs += coldRun(b, g, bc.tmap, register, emptyInputs(g.UpLeafIds())).Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}
