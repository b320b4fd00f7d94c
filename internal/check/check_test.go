package check

import (
	"fmt"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
)

// TestRandomDAG: every draw is a valid graph of the asked size with
// external inputs and sinks, and the draws cover dense and gapped ids,
// multi-slot outputs and two-branch tasks.
func TestRandomDAG(t *testing.T) {
	shapes := map[string]bool{}
	for seed := int64(0); seed < 50; seed++ {
		g := RandomDAG(30, seed)
		if err := core.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.Size() != 30 || len(core.Leaves(g)) == 0 || len(core.Roots(g)) == 0 {
			t.Fatalf("seed %d: %d tasks, %d leaves, %d sinks", seed, g.Size(), len(core.Leaves(g)), len(core.Roots(g)))
		}
		ids := g.TaskIds()
		shapes[fmt.Sprint("gapped ", ids[len(ids)-1] != core.TaskId(len(ids)-1))] = true
		for _, id := range ids {
			task, _ := g.Task(id)
			shapes["multi-slot"] = shapes["multi-slot"] || len(task.Outgoing) > 1
			shapes["branches"] = shapes["branches"] || task.Branches == 2
		}
	}
	if len(shapes) != 4 || !shapes["multi-slot"] || !shapes["branches"] {
		t.Errorf("50 draws cover only %v", shapes)
	}
}

// recorder is a testing.TB that keeps the checker's complaints.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestCheckerCatches plants one violation per invariant the Checker owns
// and expects a complaint for each, and none for the clean runs.
func TestCheckerCatches(t *testing.T) {
	ref := Reference{
		Sinks: map[core.TaskId][]core.Payload{2: {core.Buffer([]byte("x"))}},
		Ran:   map[core.TaskId]bool{0: true, 1: true, 2: true},
		Tasks: 3,
	}
	ran := func(epoch int, ids ...core.TaskId) []core.Event {
		var evs []core.Event
		for _, id := range ids {
			evs = append(evs, core.Event{Kind: core.TaskRan, Task: id, Epoch: epoch})
		}
		return evs
	}
	replayed := func(epoch int, id core.TaskId) core.Event {
		return core.Event{Kind: core.TaskReplayed, Task: id, Epoch: epoch}
	}
	retried := core.Event{Kind: core.EpochRetried, Epoch: 2}
	// A clean two-epoch recovery: epoch 1 ran task 0 and failed, epoch 2
	// replayed it and ran the rest.
	recovery := append(append(ran(1, 0), retried, replayed(2, 0)), ran(2, 1, 2)...)
	clean := Epochs{Epochs: 2, Replayed: 1, Executed: 2}
	for _, tc := range []struct {
		name   string
		events []core.Event
		sink   string
		rep    *Epochs // nil: a plain run
		want   bool    // a complaint is expected
	}{
		{"plain", ran(0, 0, 1, 2), "x", nil, false},
		{"sink-flipped", ran(0, 0, 1, 2), "y", nil, true},
		{"observed-twice", ran(0, 0, 1, 2, 1), "x", nil, true},
		{"never-observed", ran(0, 0, 2), "x", nil, true},
		{"elastic", recovery, "x", &clean, false},
		{"elastic-twice-in-epoch", append(recovery, ran(1, 0)...), "x", &clean, true},
		{"replay-counted-as-run", recovery, "x", &Epochs{Epochs: 2, Executed: 3}, true},
		{"replays-miscounted", recovery, "x", &Epochs{Epochs: 2, Replayed: 2, Executed: 1}, true},
		{"retry-on-fence", recovery, "x", &Epochs{Epochs: 2, Fences: 1, Memberships: 1, Replayed: 1, Executed: 2}, true},
		{"fence-uncounted", ran(2, 0, 1, 2), "x", &Epochs{Epochs: 2, Memberships: 1, Executed: 3}, true},
		{"fence-without-event", ran(2, 0, 1, 2), "x", &Epochs{Epochs: 2, Fences: 1, Executed: 3}, true},
	} {
		var chk Checker
		for _, e := range tc.events {
			chk.Observe(e)
		}
		rec := &recorder{}
		got := map[core.TaskId][]core.Payload{2: {core.Buffer([]byte(tc.sink))}}
		if tc.rep == nil {
			chk.Run(rec, ref, got)
		} else {
			chk.Elastic(rec, ref, got, *tc.rep)
		}
		if complained := len(rec.errs) > 0; complained != tc.want {
			t.Errorf("%s: complaints %q, want some: %v", tc.name, rec.errs, tc.want)
		}
	}
}
