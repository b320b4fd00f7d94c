package sim

import (
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/trace"
)

// recordedRun produces a real trace of a reduction on the MPI controller.
func recordedRun(t *testing.T) (*graphs.Reduction, []trace.Span) {
	t.Helper()
	g, _ := graphs.NewReduction(8, 2)
	rec := trace.NewRecorder()
	c := mpi.New(mpi.WithObserver(rec))
	if err := c.Initialize(g, core.NewModuloMap(2, g.Size())); err != nil {
		t.Fatal(err)
	}
	fn := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		time.Sleep(100 * time.Microsecond)
		return []core.Payload{core.Buffer([]byte{1})}, nil
	}
	for _, cb := range g.Callbacks() {
		c.RegisterCallback(cb, fn)
	}
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range g.LeafIds() {
		initial[id] = []core.Payload{core.Buffer([]byte{0})}
	}
	if _, err := c.Run(initial); err != nil {
		t.Fatal(err)
	}
	return g, rec.Spans()
}

func TestReplayWorkloadUsesMeasuredDurations(t *testing.T) {
	g, spans := recordedRun(t)
	w, err := ReplayWorkload(g, spans, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range spans {
		total += s.Duration().Seconds()
	}
	var modeled float64
	for _, id := range g.TaskIds() {
		task, _ := g.Task(id)
		modeled += w.TaskCost(task)
	}
	if diff := modeled - total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("modeled total %f != measured total %f", modeled, total)
	}
	if w.MsgBytes(core.Task{}, 0) != 0 {
		t.Error("nil msgBytes should default to zero-size messages")
	}
}

func TestReplayWorkloadMissingSpan(t *testing.T) {
	g, spans := recordedRun(t)
	if _, err := ReplayWorkload(g, spans[:len(spans)-1], nil); err == nil {
		t.Error("incomplete trace should fail")
	}
}

func TestWhatIfCoversAllRuntimes(t *testing.T) {
	g, spans := recordedRun(t)
	results, err := WhatIf(g, spans, func(core.Task, int) int { return 1 << 20 }, ShaheenII(4))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"MPI", "Original MPI", "Charm++", "Legion", "Legion IL", "IceT"}
	for _, name := range want {
		res, ok := results[name]
		if !ok {
			t.Fatalf("missing runtime %q", name)
		}
		if res.Makespan <= 0 || res.Tasks != g.Size() {
			t.Errorf("%s: implausible result %+v", name, res)
		}
	}
	// The zero-overhead direct model can never lose to Legion on the same
	// workload.
	if results["IceT"].Makespan > results["Legion"].Makespan {
		t.Errorf("IceT (%f) slower than Legion (%f)", results["IceT"].Makespan, results["Legion"].Makespan)
	}
}
