package mpi

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

func reductionSubmission(g *graphs.Reduction, initial map[core.TaskId][]core.Payload) Submission {
	return Submission{
		Graph: g,
		Register: func(c core.CallbackRegistrar) error {
			for cb, fn := range map[core.CallbackId]core.Callback{
				graphs.ReduceLeafCB: sumCB(1),
				graphs.ReduceMidCB:  sumCB(1),
				graphs.ReduceRootCB: sumCB(1),
			} {
				if err := c.RegisterCallback(cb, fn); err != nil {
					return err
				}
			}
			return nil
		},
		Initial: initial,
	}
}

func serialReduction(t *testing.T, g *graphs.Reduction, initial map[core.TaskId][]core.Payload) map[core.TaskId][]core.Payload {
	t.Helper()
	ser := core.NewSerial()
	if err := ser.Initialize(g, nil); err != nil {
		t.Fatal(err)
	}
	for cb, fn := range map[core.CallbackId]core.Callback{
		graphs.ReduceLeafCB: sumCB(1),
		graphs.ReduceMidCB:  sumCB(1),
		graphs.ReduceRootCB: sumCB(1),
	} {
		ser.RegisterCallback(cb, fn)
	}
	want, err := ser.Run(cloneInitial(initial))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestServiceSubmitMatchesSerial streams many submissions through one warm
// service and compares every run's sinks byte for byte against the serial
// reference.
func TestServiceSubmitMatchesSerial(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	initial := reductionInputs(g)
	want := serialReduction(t, g, initial)

	s, err := NewService(4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 25; i++ {
		got, _, err := s.Submit(context.Background(), reductionSubmission(g, cloneInitial(initial)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		check.Sinks(t, want, got)
	}
	if s.Runs() != 0 {
		t.Fatalf("runs still attached after drain: %d", s.Runs())
	}
}

// TestServiceConcurrentSubmissions interleaves many submissions over one
// warm fabric and pool; every run must stay isolated and byte-identical to
// serial. Run with -race.
func TestServiceConcurrentSubmissions(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	initial := reductionInputs(g)
	want := serialReduction(t, g, initial)

	s, err := NewService(4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const submitters, perSubmitter = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				got, _, err := s.Submit(context.Background(), reductionSubmission(g, cloneInitial(initial)))
				if err != nil {
					errs <- err
					return
				}
				check.Sinks(t, want, got)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestServiceMixedGraphs interleaves two different graph shapes over one
// service — per-run registries must keep their callbacks apart.
func TestServiceMixedGraphs(t *testing.T) {
	small, _ := graphs.NewReduction(4, 2)
	big, _ := graphs.NewReduction(32, 2)
	smallIn, bigIn := reductionInputs(small), reductionInputs(big)
	wantSmall := serialReduction(t, small, smallIn)
	wantBig := serialReduction(t, big, bigIn)

	s, err := NewService(3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		gotS, _, err := s.Submit(context.Background(), reductionSubmission(small, cloneInitial(smallIn)))
		if err != nil {
			t.Fatal(err)
		}
		check.Sinks(t, wantSmall, gotS)
		gotB, _, err := s.Submit(context.Background(), reductionSubmission(big, cloneInitial(bigIn)))
		if err != nil {
			t.Fatal(err)
		}
		check.Sinks(t, wantBig, gotB)
	}
}

// TestServiceCancelIsolation cancels one submission's context and checks
// the service keeps serving others.
func TestServiceCancelIsolation(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	initial := reductionInputs(g)
	want := serialReduction(t, g, initial)

	s, err := NewService(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Submit(ctx, reductionSubmission(g, cloneInitial(initial))); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled submit: err=%v, want ErrCancelled", err)
	}
	got, _, err := s.Submit(context.Background(), reductionSubmission(g, cloneInitial(initial)))
	if err != nil {
		t.Fatalf("submit after a cancelled run: %v", err)
	}
	check.Sinks(t, want, got)
}

// TestServiceCallbackErrorIsolation checks a failing run surfaces its error
// without poisoning the shared fabric.
func TestServiceCallbackErrorIsolation(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	initial := reductionInputs(g)
	want := serialReduction(t, g, initial)
	boom := errors.New("boom")

	s, err := NewService(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	bad := reductionSubmission(g, cloneInitial(initial))
	bad.Register = func(c core.CallbackRegistrar) error {
		c.RegisterCallback(graphs.ReduceLeafCB, sumCB(1))
		c.RegisterCallback(graphs.ReduceMidCB, sumCB(1))
		return c.RegisterCallback(graphs.ReduceRootCB, func([]core.Payload, core.TaskId) ([]core.Payload, error) {
			return nil, boom
		})
	}
	if _, _, err := s.Submit(context.Background(), bad); !errors.Is(err, boom) {
		t.Fatalf("failing run: err=%v, want boom", err)
	}
	got, _, err := s.Submit(context.Background(), reductionSubmission(g, cloneInitial(initial)))
	if err != nil {
		t.Fatalf("submit after a failed run: %v", err)
	}
	check.Sinks(t, want, got)
}

// TestServiceCloseDrains checks Close waits for active runs, rejects late
// submissions, is idempotent, and leaks no goroutines.
func TestServiceCloseDrains(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	initial := reductionInputs(g)

	check.NoLeak(t)
	s, err := NewService(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(context.Background(), reductionSubmission(g, cloneInitial(initial))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(context.Background(), reductionSubmission(g, cloneInitial(initial))); err == nil {
		t.Fatal("submit on a closed service should fail")
	}
}

// TestServiceJournalPerRun checks journaled services give each run a
// private directory under the root and report per-run journal counters.
func TestServiceJournalPerRun(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	initial := reductionInputs(g)
	dir := t.TempDir()

	s, err := NewService(2, WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		_, js, err := s.Submit(context.Background(), reductionSubmission(g, cloneInitial(initial)))
		if err != nil {
			t.Fatal(err)
		}
		if js.Executed == 0 {
			t.Fatalf("run %d: journal counted no executions", i+1)
		}
	}
	for _, run := range []string{"run-1", "run-2"} {
		if _, err := os.Stat(filepath.Join(dir, run, "rank-0")); err != nil {
			t.Fatalf("journal directory for %s missing: %v", run, err)
		}
	}
}

// TestServiceRejectsBadOptions covers NewService surfacing option
// validation errors directly.
func TestServiceRejectsBadOptions(t *testing.T) {
	if _, err := NewService(2, WithJournalGroupCommit(0, 8)); err == nil {
		t.Error("zero commit window accepted")
	}
	if _, err := NewService(0); err == nil {
		t.Error("zero ranks accepted")
	}
}

// TestServiceDrainPlacement drains two of four ranks and runs a
// default-mapped 16-leaf reduction: the undrained ranks keep every task the
// map gave them, the drained ranks' tasks are dealt round-robin over ranks
// 0 and 2 in plan order, nothing runs on a drained rank, and the sinks
// match serial.
func TestServiceDrainPlacement(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	initial := reductionInputs(g)
	want := serialReduction(t, g, initial)

	execs := core.NewExecutionLog()
	s, err := NewService(4, WithObserver(execs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range []int{1, 3} {
		if err := s.Drain(r); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := s.Submit(context.Background(), reductionSubmission(g, cloneInitial(initial)))
	if err != nil {
		t.Fatal(err)
	}
	check.Sinks(t, want, got)

	m := core.NewGraphMap(4, g)
	orphans := 0
	for _, id := range g.TaskIds() {
		ran := execs.Shards[id]
		switch base := m.Shard(id); base {
		case 0, 2:
			if ran != base {
				t.Errorf("task %d: mapped to undrained rank %d, ran on %d", id, base, ran)
			}
		default:
			if dst := core.ShardId(2 * (orphans % 2)); ran != dst {
				t.Errorf("task %d: orphan %d of drained rank %d ran on %d, want %d", id, orphans, base, ran, dst)
			}
			orphans++
		}
		if n := execs.Executions(id); n != 1 {
			t.Errorf("task %d ran %d times", id, n)
		}
	}
	if runs, tasks := s.HandoffCounts(); runs != 1 || tasks != uint64(orphans) {
		t.Errorf("HandoffCounts = %d run(s), %d task(s); want 1, %d", runs, tasks, orphans)
	}
	if s.Stray() != 0 {
		t.Errorf("drained run left %d stray frames", s.Stray())
	}
}
