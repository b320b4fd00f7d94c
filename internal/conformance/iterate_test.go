package conformance

import (
	"fmt"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/register"
)

// iterRegCase builds the iterative registration refinement workload the
// loop-combinator conformance sweeps run: a 3x2 tile grid whose pairwise
// offset estimates are refined under core.Iterate until the root's changed
// count reaches zero. The returned initial function mints fresh external
// inputs per run (runs consume their inputs); the tile set itself is
// deterministic, so every run of the workload must converge at the same
// iteration with byte-identical sinks.
func iterRegCase(t *testing.T) (register.Config, *core.IterativeGraph, func(core.CallbackRegistrar) error, func() map[core.TaskId][]core.Payload) {
	t.Helper()
	cfg := register.Config{GridW: 3, GridH: 2, Tile: 16, Overlap: 0.25, Jitter: 1}
	ig, err := cfg.Iterative(6)
	if err != nil {
		t.Fatal(err)
	}
	reg := func(c core.CallbackRegistrar) error { return cfg.RegisterIter(c, ig) }
	tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 20260707)
	initial := func() map[core.TaskId][]core.Payload {
		in, err := cfg.IterInitial(tiles)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	return cfg, ig, reg, initial
}

// assertIterConverged decodes the run's decision sinks: the predicate must
// have fired strictly before the iteration bound (so conditional routing,
// not the bound, ended the loop) and the estimates must decode.
func assertIterConverged(t *testing.T, cfg register.Config, ig *core.IterativeGraph, results map[core.TaskId][]core.Payload) int {
	t.Helper()
	iter, sinks, err := ig.Final(results)
	if err != nil {
		t.Fatalf("Final: %v", err)
	}
	if iter >= ig.MaxIter()-1 {
		t.Fatalf("converged at iteration %d: the bound, not the predicate, ended the loop", iter)
	}
	if _, err := cfg.IterEstimates(sinks); err != nil {
		t.Fatalf("converged sinks do not decode: %v", err)
	}
	return iter
}

// TestIterateWireConformance runs the iterative registration loop on 4
// ranks over real loopback fabrics at every transport tier: each tier's
// converged sinks must be byte-identical to the serial reference, and the
// convergence decision (which iteration's branch went live) must agree —
// runtime control flow is part of the conformance surface, not just the
// payload bytes.
func TestIterateWireConformance(t *testing.T) {
	cfg, ig, reg, initial := iterRegCase(t)
	ref := check.Serial(t, ig, reg, initial())
	wantIter := assertIterConverged(t, cfg, ig, ref.Sinks)

	for _, tc := range conformanceTiers {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := runOverWire(t, ig, core.NewIterativeMap(4, ig), reg, ref, initial(), tc.tier)
			if iter := assertIterConverged(t, cfg, ig, got); iter != wantIter {
				t.Errorf("converged at iteration %d over %s, serial at %d", iter, tc.name, wantIter)
			}
		})
	}
}

// TestIterateResumeAfterKillingAllRanks kills EVERY rank mid-iteration
// during a journaled run of the refinement loop, then resumes over the same
// journal directory: replayed loop state (iteration-prefixed task ids,
// decision outcomes, dead-branch cancellations) must splice with live
// execution to reproduce the serial reference byte-for-byte. Cancelled
// dead-branch tasks are journaled like any other completion, so the
// restored/replayed/executed ledger accounting must still tile the whole
// unrolled graph.
func TestIterateResumeAfterKillingAllRanks(t *testing.T) {
	const ranks = 4
	cfg, ig, reg, initial := iterRegCase(t)
	ref := check.Serial(t, ig, reg, initial())
	wantIter := assertIterConverged(t, cfg, ig, ref.Sinks)

	for _, tc := range conformanceTiers {
		for _, killAfter := range []int{0, 6} {
			t.Run(fmt.Sprintf("%s/killall_after%d", tc.name, killAfter), func(t *testing.T) {
				t.Parallel()
				m := core.NewIterativeMap(ranks, ig)
				dir := t.TempDir()

				_, errs, _ := journaledWireRun(t, ig, m, reg, initial(), dir, tc.tier, nil,
					func(rank int, tr fabric.Transport) fabric.Transport {
						return faultinject.Wrap(tr, rank, faultinject.Plan{
							KillRank:  rank,
							KillAfter: killAfter,
							Delay:     time.Millisecond,
						})
					})
				failed := 0
				for _, err := range errs {
					if err != nil {
						failed++
					}
				}
				if failed == 0 {
					t.Fatal("kill-all seed run completed without a single failure")
				}

				chk := new(check.Checker)
				got, errs, js := journaledWireRun(t, ig, m, reg, initial(), dir, tc.tier, []mpi.Option{mpi.WithObserver(chk)}, nil)
				for r, err := range errs {
					if err != nil {
						t.Fatalf("resume rank %d: %v", r, err)
					}
				}
				chk.Run(t, ref, got)
				if iter := assertIterConverged(t, cfg, ig, got); iter != wantIter {
					t.Errorf("resume converged at iteration %d, serial at %d", iter, wantIter)
				}
				if js.Restored == 0 {
					t.Error("resume restored nothing: seed run journaled no progress")
				}
				if js.Replayed != js.Restored {
					t.Errorf("replayed %d tasks, restored %d — every restored task must replay", js.Replayed, js.Restored)
				}
				if js.Replayed+js.Executed != ig.Size() {
					t.Errorf("replayed %d + executed %d != %d unrolled tasks", js.Replayed, js.Executed, ig.Size())
				}
				t.Logf("seed failed_ranks=%d; resume restored=%d replayed=%d executed=%d of %d",
					failed, js.Restored, js.Replayed, js.Executed, ig.Size())
			})
		}
	}
}
