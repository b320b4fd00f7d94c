// Package usecase is the one catalog of the paper's use cases: each is
// described here once — synthetic data, decomposition, task graph,
// placement, callbacks, external inputs and the paper-level result check —
// and handed to any controller in the usual three calls (Initialize,
// Register, Run). cmd/bfrun (in-memory, multi-process, elastic and
// fault-injected runs) and the serve registry build their cases here, so
// they cannot disagree about what "mergetree" means or which bytes its
// sinks hold.
package usecase

import (
	"fmt"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/register"
	"github.com/babelflow/babelflow-go/internal/render"
)

// Params carries a case's integer knobs (domain size, block count, …).
// Missing keys fall back to per-case defaults.
type Params map[string]int

// Get returns p[key], or def when absent or non-positive.
func (p Params) Get(key string, def int) int {
	if v, ok := p[key]; ok && v > 0 {
		return v
	}
	return def
}

// Case is one use case ready to run. Initial is freshly allocated by every
// Build — a run consumes its inputs, so build once per run.
type Case struct {
	Graph core.TaskGraph
	// Map places the graph on the given number of ranks.
	Map      func(ranks int) core.TaskMap
	Register func(core.CallbackRegistrar) error
	Initial  map[core.TaskId][]core.Payload
	// Check is the paper-level verdict on a run's sinks: a one-line summary
	// and whether the result is right (segmentation equals the serial one,
	// frame equals IceT's, solved tile offsets equal the ground truth).
	Check func(sinks map[core.TaskId][]core.Payload) (summary string, ok bool, err error)
}

// Build constructs the named case: mergetree and render take n (domain
// edge, default 32) and blocks (power of two ≥ 4, default 8); register and
// register-iter take grid (3) and tile (24), register-iter also maxiter (8).
func Build(name string, p Params) (Case, error) {
	switch name {
	case "mergetree":
		return buildMergeTree(p.Get("n", 32), p.Get("blocks", 8))
	case "render":
		return buildRender(p.Get("n", 32), p.Get("blocks", 8))
	case "register", "register-iter":
		cfg := register.Config{
			GridW:   p.Get("grid", 3),
			GridH:   p.Get("grid", 3),
			Tile:    p.Get("tile", 24),
			Overlap: 0.2,
			Jitter:  2,
		}
		if err := cfg.Validate(); err != nil {
			return Case{}, err
		}
		tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 5)
		if name == "register" {
			return buildRegister(cfg, tiles)
		}
		return buildRegisterIter(cfg, tiles, p.Get("maxiter", 8))
	}
	return Case{}, fmt.Errorf("usecase: unknown use case %q (have mergetree, render, register, register-iter)", name)
}

// Reference runs the case on the serial reference controller and returns
// its sinks — the bytes every other runtime, transport and recovery path
// must reproduce. It consumes c.Initial.
func Reference(c Case) (map[core.TaskId][]core.Payload, error) {
	ser := core.NewSerial()
	if err := ser.Initialize(c.Graph, nil); err != nil {
		return nil, err
	}
	if c.Register != nil {
		if err := c.Register(ser); err != nil {
			return nil, err
		}
	}
	return ser.Run(c.Initial)
}

func buildMergeTree(n, blocks int) (Case, error) {
	field := data.SyntheticHCCI(n, n, n, 8, 2026)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
	if err != nil {
		return Case{}, err
	}
	graph, err := mergetree.NewGraph(blocks, 2)
	if err != nil {
		return Case{}, err
	}
	cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
	initial, err := cfg.InitialInputs(field, graph)
	if err != nil {
		return Case{}, err
	}
	return Case{
		Graph:    graph,
		Map:      func(ranks int) core.TaskMap { return core.NewGraphMap(ranks, graph) },
		Register: func(c core.CallbackRegistrar) error { return cfg.Register(c, graph) },
		Initial:  initial,
		Check: func(out map[core.TaskId][]core.Payload) (string, bool, error) {
			want := mergetree.SerialSegmentation(field, cfg.Threshold)
			mismatches, labeled := 0, 0
			features := make(map[uint64]bool)
			for i := 0; i < blocks; i++ {
				wire, err := sinkWire(out, graph.SegmentationTask(i))
				if err != nil {
					return "", false, err
				}
				seg, err := mergetree.DeserializeSegmentation(wire)
				if err != nil {
					return "", false, err
				}
				for vid, rep := range seg.Labels {
					labeled++
					features[rep] = true
					if want[vid] != rep {
						mismatches++
					}
				}
			}
			return fmt.Sprintf("features=%d labeled=%d mismatches=%d", len(features), labeled, mismatches),
				mismatches == 0, nil
		},
	}, nil
}

func buildRender(n, blocks int) (Case, error) {
	field := data.SyntheticHCCI(n, n, n, 6, 7)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
	if err != nil {
		return Case{}, err
	}
	cfg := render.Config{
		Decomp: decomp,
		Camera: render.Camera{Width: n, Height: n},
		TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
	}
	graph, err := graphs.NewReduction(blocks, 2)
	if err != nil {
		return Case{}, err
	}
	initial, err := cfg.InitialInputs(field, graph.LeafIds())
	if err != nil {
		return Case{}, err
	}
	return Case{
		Graph:    graph,
		Map:      func(ranks int) core.TaskMap { return core.NewModuloMap(ranks, graph.Size()) },
		Register: func(c core.CallbackRegistrar) error { return cfg.RegisterReduction(c, graph) },
		Initial:  initial,
		Check: func(out map[core.TaskId][]core.Payload) (string, bool, error) {
			wire, err := sinkWire(out, graph.Root())
			if err != nil {
				return "", false, err
			}
			frame, err := render.DeserializeImage(wire)
			if err != nil {
				return "", false, err
			}
			direct, err := render.NewIceT(cfg).RenderAndCompositeTree(field)
			if err != nil {
				return "", false, err
			}
			same := frame.Equal(direct)
			return fmt.Sprintf("matches-icet=%v", same), same, nil
		},
	}, nil
}

func buildRegister(cfg register.Config, tiles []data.BrainTile) (Case, error) {
	graph, err := cfg.Graph()
	if err != nil {
		return Case{}, err
	}
	initial, err := cfg.InitialInputs(graph, tiles)
	if err != nil {
		return Case{}, err
	}
	return Case{
		Graph:    graph,
		Map:      func(ranks int) core.TaskMap { return core.NewModuloMap(ranks, graph.Size()) },
		Register: func(c core.CallbackRegistrar) error { return cfg.Register(c, graph) },
		Initial:  initial,
		Check: func(out map[core.TaskId][]core.Payload) (string, bool, error) {
			var ests []register.Estimate
			for y := 0; y < cfg.GridH; y++ {
				for x := 0; x < cfg.GridW; x++ {
					wire, err := sinkWire(out, graph.ProcessId(x, y))
					if err != nil {
						return "", false, err
					}
					e, err := register.DeserializeEstimate(wire)
					if err != nil {
						return "", false, err
					}
					ests = append(ests, e)
				}
			}
			exact, err := exactTiles(cfg, tiles, ests)
			return fmt.Sprintf("exact=%d/%d", exact, len(tiles)), exact == len(tiles), err
		},
	}, nil
}

// buildRegisterIter is the registration dataflow unrolled under
// core.Iterate, converging once the pairwise estimates stop moving; the
// solved positions must still match the ground truth exactly.
func buildRegisterIter(cfg register.Config, tiles []data.BrainTile, maxIter int) (Case, error) {
	ig, err := cfg.Iterative(maxIter)
	if err != nil {
		return Case{}, err
	}
	initial, err := cfg.IterInitial(tiles)
	if err != nil {
		return Case{}, err
	}
	return Case{
		Graph:    ig,
		Map:      func(ranks int) core.TaskMap { return core.NewIterativeMap(ranks, ig) },
		Register: func(c core.CallbackRegistrar) error { return cfg.RegisterIter(c, ig) },
		Initial:  initial,
		Check: func(out map[core.TaskId][]core.Payload) (string, bool, error) {
			iter, sinks, err := ig.Final(out)
			if err != nil {
				return "", false, err
			}
			ests, err := cfg.IterEstimates(sinks)
			if err != nil {
				return "", false, err
			}
			exact, err := exactTiles(cfg, tiles, ests)
			return fmt.Sprintf("converged=%d/%d exact=%d/%d", iter+1, ig.MaxIter(), exact, len(tiles)),
				exact == len(tiles), err
		},
	}, nil
}

// exactTiles solves the global tile positions from the pairwise estimates
// and counts the tiles placed exactly at their ground-truth offset.
func exactTiles(cfg register.Config, tiles []data.BrainTile, ests []register.Estimate) (int, error) {
	pos, err := register.Solve(cfg.GridW, cfg.GridH, ests)
	if err != nil {
		return 0, err
	}
	exact := 0
	for y := 0; y < cfg.GridH; y++ {
		for x := 0; x < cfg.GridW; x++ {
			tl := tiles[y*cfg.GridW+x]
			if (pos[y][x] == register.Position{X: tl.TrueX - tiles[0].TrueX, Y: tl.TrueY - tiles[0].TrueY}) {
				exact++
			}
		}
	}
	return exact, nil
}

// sinkWire returns the wire form of a sink task's first output.
func sinkWire(out map[core.TaskId][]core.Payload, id core.TaskId) ([]byte, error) {
	ps := out[id]
	if len(ps) == 0 {
		return nil, fmt.Errorf("usecase: sink task %d produced no output", id)
	}
	return ps[0].Wire()
}
