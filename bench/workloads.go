package main

import (
	"math"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/register"
	"github.com/babelflow/babelflow-go/internal/render"
	"github.com/babelflow/babelflow-go/internal/serve"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// The load of every workload comes from this one process: two ranks, two
// workers, GOMAXPROCS 2, and never more client goroutines than that.
const (
	ranks   = 2
	workers = 2
)

// workload is one named set of inputs. Names are final: later issues cite
// them. BENCHMARK.json records why each was chosen.
type workload struct {
	name    string
	measure func(cfg config) (*result, error)
}

// config is what one measurement of one workload is told.
type config struct {
	seed    uint64
	seconds float64 // wall-clock budget of the measured phase
	trace   bool    // wrappers on: report per-layer metrics
	smoke   bool    // tiny inputs, so the tests can run every workload
	out     string  // directory for traces, records and scratch files
}

// catalog lists the workloads in reporting order.
func catalog() []workload {
	var ws []workload
	for _, o := range oneShots() {
		ws = append(ws, workload{name: o.name, measure: o.measure})
	}
	return append(ws, workload{name: "serve-mix", measure: measureServeMix})
}

// dataflow is one use case bound to generated inputs: what a user of the
// EDSL writes before handing it to a controller.
type dataflow struct {
	graph    core.TaskGraph
	tmap     core.TaskMap
	register func(core.CallbackRegistrar) error
	// initial allocates fresh external inputs; a run consumes them.
	initial func() (map[core.TaskId][]core.Payload, error)
}

// oneShot is a workload where every run is a cold, complete dataflow
// execution the way bfrun performs one: build, Initialize, register,
// inputs, transport, Run.
type oneShot struct {
	name string
	// k is the number of back-to-back runs in one trial, fixed so a trial
	// lasts at least half a second on the reference box; shorter runs do not
	// repeat within a tenth (README, sizing evidence).
	k int
	// overWire runs one RunRank per rank over an in-process wire.Mesh at
	// tier, one worker per rank; otherwise the mpi controller runs all ranks
	// over the in-memory fabric with the two workers shared.
	overWire bool
	tier     wire.Tier
	// diagnostics marks the workload whose inputs the journal, controller
	// and simulator diagnostics of the traced pass re-run.
	diagnostics bool
	// gen is load generation: it derives the inputs from the seed and
	// returns the constructor of the dataflow over them. Only the returned
	// constructor is part of set-up time.
	gen func(seed uint64, smoke bool) func() (*dataflow, error)
}

// pick returns full, or small under -smoke.
func pick(smoke bool, full, small int) int {
	if smoke {
		return small
	}
	return full
}

// modulate scales every voxel by 1 +- 0.1 % along a smooth periodic wave
// whose phase the seed draws: every value changes with the seed, the
// topology of the field, and with it the work, does not.
func modulate(f *data.Field, seed uint64) {
	rng := data.NewRand(seed)
	wave := func(n int) []float64 {
		phase := rng.Float64()
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Sin(2 * math.Pi * (float64(i)/float64(n) + phase))
		}
		return w
	}
	wx, wy, wz := wave(f.NX), wave(f.NY), wave(f.NZ)
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				f.Set(x, y, z, f.At(x, y, z)*float32(1+1e-3*wx[x]*wy[y]*wz[z]))
			}
		}
	}
}

// mix derives an independent stream seed from the run seed.
func mix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func oneShots() []*oneShot {
	return []*oneShot{
		{
			name:        "mergetree-mem",
			k:           2,
			diagnostics: true,
			gen: func(seed uint64, smoke bool) func() (*dataflow, error) {
				n, blocks := pick(smoke, 128, 32), pick(smoke, 32, 8)
				// Segmentation work follows the features of the field: a
				// fresh kernel draw per seed moves run time tenfold, and even
				// a periodic shift of one field moves it by half (how the
				// block faces cut the features changes the join work). So
				// the seed modulates bfrun's field instead.
				field := data.SyntheticHCCI(n, n, n, 8, 2026)
				modulate(field, mix(seed, 1))
				return func() (*dataflow, error) {
					decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
					if err != nil {
						return nil, err
					}
					g, err := mergetree.NewGraph(blocks, 2)
					if err != nil {
						return nil, err
					}
					cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
					return &dataflow{
						graph:    g,
						tmap:     core.NewGraphMap(ranks, g),
						register: func(c core.CallbackRegistrar) error { return cfg.Register(c, g) },
						initial:  func() (map[core.TaskId][]core.Payload, error) { return cfg.InitialInputs(field, g) },
					}, nil
				}
			},
		},
		{
			name:     "render-tcp",
			k:        6,
			overWire: true,
			tier:     wire.TierTCP,
			gen: func(seed uint64, smoke bool) func() (*dataflow, error) {
				n, blocks := pick(smoke, 256, 32), pick(smoke, 32, 8)
				field := data.SyntheticHCCI(n, n, n, 6, mix(seed, 2))
				return func() (*dataflow, error) {
					decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
					if err != nil {
						return nil, err
					}
					cfg := render.Config{
						Decomp: decomp,
						Camera: render.Camera{Width: n, Height: n},
						TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
					}
					g, err := graphs.NewReduction(blocks, 2)
					if err != nil {
						return nil, err
					}
					return &dataflow{
						graph:    g,
						tmap:     core.NewModuloMap(ranks, g.Size()),
						register: func(c core.CallbackRegistrar) error { return cfg.RegisterReduction(c, g) },
						initial:  func() (map[core.TaskId][]core.Payload, error) { return cfg.InitialInputs(field, g.LeafIds()) },
					}, nil
				}
			},
		},
		{
			name:     "regiter-shm",
			k:        5,
			overWire: true,
			tier:     wire.TierAuto,
			gen: func(seed uint64, smoke bool) func() (*dataflow, error) {
				grid := pick(smoke, 6, 3)
				cfg := register.Config{GridW: grid, GridH: grid, Tile: 24, Overlap: 0.2, Jitter: 2}
				tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, mix(seed, 3))
				return func() (*dataflow, error) {
					ig, err := cfg.Iterative(8)
					if err != nil {
						return nil, err
					}
					return &dataflow{
						graph:    ig,
						tmap:     core.NewIterativeMap(ranks, ig),
						register: func(c core.CallbackRegistrar) error { return cfg.RegisterIter(c, ig) },
						initial:  func() (map[core.TaskId][]core.Payload, error) { return cfg.IterInitial(tiles) },
					}, nil
				}
			},
		},
		{
			name: "graph-scale",
			k:    10,
			gen: func(seed uint64, smoke bool) func() (*dataflow, error) {
				leaves := pick(smoke, 4096, 256)
				reg := serve.DefaultRegistry()
				return func() (*dataflow, error) {
					// The registry's kwaymerge prototype is the hash-mix
					// dataflow bfserve users submit; its inputs are a function
					// of the task id, so the seed is folded into them here.
					sub, err := reg.Build("kwaymerge", serve.Params{"blocks": leaves, "valence": 2, "payload": 64})
					if err != nil {
						return nil, err
					}
					salt := byte(mix(seed, 4))
					for _, ps := range sub.Initial {
						for _, p := range ps {
							p.Data[len(p.Data)-1] ^= salt
						}
					}
					return &dataflow{
						graph:    sub.Graph,
						tmap:     core.NewGraphMap(ranks, sub.Graph),
						register: sub.Register,
						initial: func() (map[core.TaskId][]core.Payload, error) {
							fresh := make(map[core.TaskId][]core.Payload, len(sub.Initial))
							for id, ps := range sub.Initial {
								for _, p := range ps {
									fresh[id] = append(fresh[id], core.Buffer(append([]byte(nil), p.Data...)))
								}
							}
							return fresh, nil
						},
					}, nil
				}
			},
		},
	}
}

// digestAndRelease digests the sinks of a run and drops every payload
// reference, so arena buffers of one run never leak into the next.
func digestAndRelease(out map[core.TaskId][]core.Payload) (string, error) {
	d, err := serve.SinkDigest(out)
	for _, ps := range out {
		for _, p := range ps {
			p.Release()
		}
	}
	return d, err
}
