package conformance

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/register"
	"github.com/babelflow/babelflow-go/internal/render"
)

// schedWorkload is one of the paper's figure use cases, packaged for the
// scheduler determinism suite: a real graph with real analysis callbacks
// and real synthetic inputs.
type schedWorkload struct {
	name     string
	graph    core.TaskGraph
	register func(c core.CallbackRegistrar) error
	// initial synthesizes fresh external inputs per run: callbacks own
	// their inputs and may mutate them, so runs must not share payloads.
	initial func() map[core.TaskId][]core.Payload
	// arenaEscapes: a fan-out's last consumer keeps its shared arena buffer
	// (by design), so the run's arena count is not exact.
	arenaEscapes bool
}

// figureWorkloads builds the three use cases at test scale.
func figureWorkloads(t testing.TB) []schedWorkload {
	t.Helper()
	var out []schedWorkload

	{ // Merge tree (Fig. 2): k-way reduction with segmentation broadcast back.
		const n, blocks = 16, 8
		field := data.SyntheticHCCI(n, n, n, 8, 2026)
		decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
		if err != nil {
			t.Fatal(err)
		}
		g, err := mergetree.NewGraph(blocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
		out = append(out, schedWorkload{
			name:  "mergetree",
			graph: g,
			register: func(c core.CallbackRegistrar) error {
				return cfg.Register(c, g)
			},
			initial: func() map[core.TaskId][]core.Payload {
				initial, err := cfg.InitialInputs(field, g)
				if err != nil {
					t.Fatal(err)
				}
				return initial
			},
			arenaEscapes: true,
		})
	}

	{ // Volume rendering (Fig. 9): binary compositing reduction.
		const n, blocks = 16, 8
		field := data.SyntheticHCCI(n, n, n, 6, 7)
		decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := render.Config{
			Decomp: decomp,
			Camera: render.Camera{Width: n, Height: n},
			TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
		}
		g, err := graphs.NewReduction(blocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, schedWorkload{
			name:  "render",
			graph: g,
			register: func(c core.CallbackRegistrar) error {
				return cfg.RegisterReduction(c, g)
			},
			initial: func() map[core.TaskId][]core.Payload {
				initial, err := cfg.InitialInputs(field, g.LeafIds())
				if err != nil {
					t.Fatal(err)
				}
				return initial
			},
		})
	}

	{ // Image registration (Fig. 10): 2D neighbor exchange.
		cfg := register.Config{GridW: 3, GridH: 3, Tile: 24, Overlap: 0.2, Jitter: 2}
		tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 5)
		g, err := cfg.Graph()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, schedWorkload{
			name:  "register",
			graph: g,
			register: func(c core.CallbackRegistrar) error {
				return cfg.Register(c, g)
			},
			initial: func() map[core.TaskId][]core.Payload {
				initial, err := cfg.InitialInputs(g, tiles)
				if err != nil {
					t.Fatal(err)
				}
				return initial
			},
		})
	}
	return out
}

// schedModes are the runs TestSchedulerDeterminism checks at each worker
// budget: the executor's one discipline (critical-path priority, idle
// workers stealing across ranks) as is, and with every payload forced
// through its wire form, so each figure workload's codecs round-trip
// (and return their arena buffers) under every schedule.
var schedModes = []struct {
	name string
	opts []mpi.Option
}{
	{"priority_steal", nil},
	{"serialize", []mpi.Option{mpi.WithAlwaysSerialize(true)}},
}

// TestSchedulerDeterminism is the scheduler determinism suite: the three
// figure workloads must pass the checker — sinks byte-identical to the
// serial reference, every task once, no goroutine left — at every worker
// budget (1, 2, GOMAXPROCS) and in every mode: scheduling order may change
// timing, never outputs.
func TestSchedulerDeterminism(t *testing.T) {
	workers := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, w := range figureWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			ref := check.Serial(t, w.graph, w.register, w.initial())
			shards := 3 // uneven split: some ranks get more tasks than others
			for _, workers := range workers {
				for _, mode := range schedModes {
					t.Run(fmt.Sprintf("w%d/%s", workers, mode.name), func(t *testing.T) {
						check.NoLeak(t)
						chk := new(check.Checker)
						c := mpi.New(append([]mpi.Option{mpi.WithWorkers(workers), mpi.WithObserver(chk)}, mode.opts...)...)
						if err := c.Initialize(w.graph, core.NewGraphMap(shards, w.graph)); err != nil {
							t.Fatal(err)
						}
						if err := w.register(c); err != nil {
							t.Fatal(err)
						}
						var res map[core.TaskId][]core.Payload
						var err error
						run := func() { res, err = c.Run(w.initial()) }
						if w.arenaEscapes {
							run()
						} else {
							check.Arena(t, run)
						}
						if err != nil {
							t.Fatal(err)
						}
						chk.Run(t, ref, res)
					})
				}
			}
		})
	}
}
