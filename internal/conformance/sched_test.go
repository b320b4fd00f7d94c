package conformance

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"

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

// sinkDigest reduces a run's sink outputs to one hash, ordered by task id
// and slot so map iteration order cannot matter.
func sinkDigest(t testing.TB, out map[core.TaskId][]core.Payload) [sha256.Size]byte {
	t.Helper()
	ids := make([]core.TaskId, 0, len(out))
	for id := range out {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	var b [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		h.Write(b[:])
		for slot, p := range out[id] {
			w, err := p.Wire()
			if err != nil {
				t.Fatalf("task %d slot %d: %v", id, slot, err)
			}
			binary.LittleEndian.PutUint64(b[:], uint64(len(w)))
			h.Write(b[:])
			h.Write(w)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// schedModes are the dispatch disciplines TestSchedulerDeterminism checks
// and BenchmarkSchedulerModes times: FIFO with workers pinned to their rank
// (the pre-scheduler engine), critical-path priority with workers pinned,
// and priority with idle workers stealing across ranks (the default).
var schedModes = []struct {
	name string
	opts []mpi.Option
}{
	{"fifo", []mpi.Option{mpi.WithFIFO(true), mpi.WithNoSteal(true)}},
	{"priority", []mpi.Option{mpi.WithNoSteal(true)}},
	{"priority_steal", nil},
}

// TestSchedulerDeterminism is the scheduler determinism suite: the three
// figure workloads must produce digests byte-identical to the serial
// reference at every worker budget (1, 2, GOMAXPROCS) and in every
// scheduling mode — scheduling order may change timing, never outputs.
func TestSchedulerDeterminism(t *testing.T) {
	workers := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, w := range figureWorkloads(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			ser := core.NewSerial()
			if err := ser.Initialize(w.graph, nil); err != nil {
				t.Fatal(err)
			}
			if err := w.register(ser); err != nil {
				t.Fatal(err)
			}
			res, err := ser.Run(w.initial())
			if err != nil {
				t.Fatal(err)
			}
			want := sinkDigest(t, res)

			shards := 3 // uneven split: some ranks get more tasks than others
			for _, workers := range workers {
				for _, mode := range schedModes {
					name := fmt.Sprintf("w%d/%s", workers, mode.name)
					t.Run(name, func(t *testing.T) {
						c := mpi.New(append([]mpi.Option{mpi.WithWorkers(workers)}, mode.opts...)...)
						if err := c.Initialize(w.graph, core.NewGraphMap(shards, w.graph)); err != nil {
							t.Fatal(err)
						}
						if err := w.register(c); err != nil {
							t.Fatal(err)
						}
						res, err := c.Run(w.initial())
						if err != nil {
							t.Fatal(err)
						}
						if got := sinkDigest(t, res); got != want {
							t.Errorf("digest differs from serial (workers=%d mode=%s)", workers, mode.name)
						}
					})
				}
			}
		})
	}
}
