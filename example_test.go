package babelflow_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	babelflow "github.com/babelflow/babelflow-go"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/register"
	"github.com/babelflow/babelflow-go/internal/render"
)

// The paper's listings as checked examples: each builds a task graph,
// registers its callbacks and runs it on one or more controllers, and its
// Output block pins the result.

// Example_quickstart mirrors Listing 1: global statistics of block-decomposed
// data via a k-way reduction, one callback per role, and the same dataflow
// on every controller.
func Example_quickstart() {
	if err := quickstart(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// serial       count=16384 mean=7.9995 min=0.000 max=15.999023
	// mpi          count=16384 mean=7.9995 min=0.000 max=15.999023
	// charm++      count=16384 mean=7.9995 min=0.000 max=15.999023
	// legion-spmd  count=16384 mean=7.9995 min=0.000 max=15.999023
	// legion-il    count=16384 mean=7.9995 min=0.000 max=15.999023
}

// stats is the quickstart's reduction payload: count, sum, min, max.
type stats struct {
	count    uint64
	sum      float64
	min, max float64
}

func (s stats) encode() babelflow.Payload {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b[0:], s.count)
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.sum))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(s.min))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(s.max))
	return babelflow.Buffer(b)
}

func decodeStats(p babelflow.Payload) stats {
	return stats{
		count: binary.LittleEndian.Uint64(p.Data[0:]),
		sum:   math.Float64frombits(binary.LittleEndian.Uint64(p.Data[8:])),
		min:   math.Float64frombits(binary.LittleEndian.Uint64(p.Data[16:])),
		max:   math.Float64frombits(binary.LittleEndian.Uint64(p.Data[24:])),
	}
}

// mergeStats is the inner and root task: combine the children's statistics.
func mergeStats(in []babelflow.Payload, id babelflow.TaskId) ([]babelflow.Payload, error) {
	acc := decodeStats(in[0])
	for _, p := range in[1:] {
		s := decodeStats(p)
		acc.count += s.count
		acc.sum += s.sum
		acc.min = math.Min(acc.min, s.min)
		acc.max = math.Max(acc.max, s.max)
	}
	return []babelflow.Payload{acc.encode()}, nil
}

// localStats is the leaf task: reduce one raw data block to its statistics.
func localStats(in []babelflow.Payload, id babelflow.TaskId) ([]babelflow.Payload, error) {
	s := stats{min: math.Inf(1), max: math.Inf(-1)}
	data := in[0].Data
	for i := 0; i+8 <= len(data); i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
		s.count++
		s.sum += v
		s.min = math.Min(s.min, v)
		s.max = math.Max(s.max, v)
	}
	return []babelflow.Payload{s.encode()}, nil
}

func quickstart() error {
	const blocks, valuesPerBlock = 16, 1024

	// Synthetic block-decomposed data: block b holds values b + i/n.
	initialFor := func(graph *babelflow.Reduction) map[babelflow.TaskId][]babelflow.Payload {
		initial := make(map[babelflow.TaskId][]babelflow.Payload)
		for b, id := range graph.LeafIds() {
			buf := make([]byte, 8*valuesPerBlock)
			for i := 0; i < valuesPerBlock; i++ {
				v := float64(b) + float64(i)/valuesPerBlock
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
			}
			initial[id] = []babelflow.Payload{babelflow.Buffer(buf)}
		}
		return initial
	}

	graph, err := babelflow.NewReduction(blocks, 4)
	if err != nil {
		return err
	}
	taskMap := babelflow.NewModuloMap(4, graph.Size())
	for _, entry := range []struct {
		name string
		c    babelflow.Controller
	}{
		{"serial", babelflow.NewSerial()},
		{"mpi", babelflow.NewMPI(babelflow.WithWorkers(4))},
		{"charm++", babelflow.NewCharm(babelflow.CharmOptions{PEs: 4, LBPeriod: 4})},
		{"legion-spmd", babelflow.NewLegionSPMD(babelflow.LegionOptions{})},
		{"legion-il", babelflow.NewLegionIndexLaunch(babelflow.LegionOptions{})},
	} {
		if err := entry.c.Initialize(graph, taskMap); err != nil {
			return fmt.Errorf("%s: %w", entry.name, err)
		}
		if err := babelflow.RegisterCallbacks(entry.c, graph, map[babelflow.Role]babelflow.Callback{
			babelflow.RoleLeaf:  localStats,
			babelflow.RoleInner: mergeStats,
			babelflow.RoleRoot:  mergeStats,
		}); err != nil {
			return fmt.Errorf("%s: %w", entry.name, err)
		}
		out, err := entry.c.Run(initialFor(graph))
		if err != nil {
			return fmt.Errorf("%s: %w", entry.name, err)
		}
		s := decodeStats(out[graph.Root()][0])
		fmt.Printf("%-12s count=%d mean=%.4f min=%.3f max=%.6f\n",
			entry.name, s.count, s.sum/float64(s.count), s.min, s.max)
	}
	return nil
}

// Example_mergeTree runs the first use case (§V-A): parallel segmented merge
// trees over a synthetic combustion-like field, built as the Fig. 5
// dataflow, rendered as DOT, and checked against the serial global
// segmentation on the MPI and Charm++ controllers.
func Example_mergeTree() {
	if err := mergeTreeExample(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// task graph: 57 tasks, 80 DOT edges
	// serial reference: 865 labeled vertices
	// features with persistence >= 0.00: 10
	// features with persistence >= 0.05: 10
	// features with persistence >= 0.20: 10
	// features with persistence >= 0.50: 10
	// mpi      features=10 labeled=1012 mismatches=0
	// charm++  features=10 labeled=1012 mismatches=0
}

func mergeTreeExample() error {
	const (
		n         = 32 // domain edge length
		blocks    = 8  // 2x2x2
		valence   = 2
		threshold = 0.3
		shards    = 4
	)
	field := data.SyntheticHCCI(n, n, n, 8, 2026)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, 2)
	if err != nil {
		return err
	}
	graph, err := mergetree.NewGraph(blocks, valence)
	if err != nil {
		return err
	}
	cfg := mergetree.Config{Decomp: decomp, Threshold: threshold}

	var dot bytes.Buffer
	if err := babelflow.WriteDot(&dot, graph, babelflow.DotOptions{
		Name: "mergetree",
		Labels: map[babelflow.CallbackId]string{
			mergetree.CBLocal: "local", mergetree.CBJoin: "join", mergetree.CBRelay: "relay",
			mergetree.CBCorrection: "correction", mergetree.CBSegmentation: "segmentation",
		},
		RankByLevel: true,
	}); err != nil {
		return err
	}
	fmt.Printf("task graph: %d tasks, %d DOT edges\n", graph.Size(), strings.Count(dot.String(), "->"))

	want := mergetree.SerialSegmentation(field, cfg.Threshold)
	fmt.Printf("serial reference: %d labeled vertices\n", len(want))

	// Persistence hierarchy of the global tree: how many features survive
	// increasing simplification (the noise-robust view of Fig. 4).
	global := mergetree.FromField(field, 0, 0, 0, n, n, cfg.Threshold)
	for _, p := range []float32{0, 0.05, 0.2, 0.5} {
		fmt.Printf("features with persistence >= %.2f: %d\n", p, global.FeatureCount(p))
	}

	for _, entry := range []struct {
		name string
		c    babelflow.Controller
	}{
		{"mpi", babelflow.NewMPI(babelflow.WithWorkers(shards))},
		{"charm++", babelflow.NewCharm(babelflow.CharmOptions{PEs: shards, LBPeriod: 8})},
	} {
		if err := entry.c.Initialize(graph, babelflow.NewGraphMap(shards, graph)); err != nil {
			return fmt.Errorf("%s: %w", entry.name, err)
		}
		if err := cfg.Register(entry.c, graph); err != nil {
			return fmt.Errorf("%s: %w", entry.name, err)
		}
		initial, err := cfg.InitialInputs(field, graph)
		if err != nil {
			return err
		}
		out, err := entry.c.Run(initial)
		if err != nil {
			return fmt.Errorf("%s: %w", entry.name, err)
		}

		featureSet := make(map[uint64]bool)
		labeled, mismatches := 0, 0
		for i := 0; i < blocks; i++ {
			wire, _ := out[graph.SegmentationTask(i)][0].Wire()
			seg, err := mergetree.DeserializeSegmentation(wire)
			if err != nil {
				return err
			}
			for vid, rep := range seg.Labels {
				featureSet[rep] = true
				labeled++
				if want[vid] != rep {
					mismatches++
				}
			}
		}
		fmt.Printf("%-8s features=%d labeled=%d mismatches=%d\n",
			entry.name, len(featureSet), labeled, mismatches)
	}
	return nil
}

// Example_renderComposite runs the second use case (§V-B): volume-render a
// block-decomposed field and composite the partial images with a k-way
// reduction (Listing 1, on MPI) and with binary swap (Fig. 7, on Charm++),
// checked against IceT-style direct compositing and the serial full render.
// The last line is the digest of the final frame as a PPM (Fig. 10d).
func Example_renderComposite() {
	if err := renderCompositeExample(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// IceT within 1e-6 of serial: true
	// reduction == IceT: true
	// binary swap within 1e-6 of serial: true
	// PPM sha256: 1be0ee3446d507ede28ac23cb8711af28e01f495e6de07b249e70fe9e9f0242a
}

func renderCompositeExample() error {
	const (
		n      = 64  // domain edge length
		blocks = 8   // 2x2x2
		size   = 256 // image edge length
		shards = 4
	)
	field := data.SyntheticHCCI(n, n, n, 6, 7)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, 2)
	if err != nil {
		return err
	}
	cfg := render.Config{
		Decomp: decomp,
		Camera: render.Camera{Width: size, Height: size},
		TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
	}

	// References: the serial full render and IceT-style direct compositing.
	serial := render.RenderFull(cfg.Camera, cfg.TF, field)
	direct, err := render.NewIceT(cfg).RenderAndCompositeTree(field)
	if err != nil {
		return err
	}
	fmt.Println("IceT within 1e-6 of serial:", maxDiff(serial, direct) < 1e-6)

	// Reduction dataflow on the MPI controller.
	red, err := graphs.NewReduction(blocks, 2)
	if err != nil {
		return err
	}
	mc := babelflow.NewMPI(babelflow.WithWorkers(shards))
	if err := mc.Initialize(red, babelflow.NewModuloMap(shards, red.Size())); err != nil {
		return err
	}
	if err := cfg.RegisterReduction(mc, red); err != nil {
		return err
	}
	initial, err := cfg.InitialInputs(field, red.LeafIds())
	if err != nil {
		return err
	}
	results, err := mc.Run(initial)
	if err != nil {
		return err
	}
	wire, _ := results[red.Root()][0].Wire()
	frame, err := render.DeserializeImage(wire)
	if err != nil {
		return err
	}
	fmt.Println("reduction == IceT:", frame.Equal(direct))

	// Binary-swap dataflow on the Charm++ controller.
	bs, err := graphs.NewBinarySwap(blocks)
	if err != nil {
		return err
	}
	cc := babelflow.NewCharm(babelflow.CharmOptions{PEs: shards, LBPeriod: 4})
	if err := cc.Initialize(bs, nil); err != nil {
		return err
	}
	if err := cfg.RegisterBinarySwap(cc, bs); err != nil {
		return err
	}
	if initial, err = cfg.InitialInputs(field, bs.LeafIds()); err != nil {
		return err
	}
	if results, err = cc.Run(initial); err != nil {
		return err
	}
	var tiles []*render.Image
	for _, id := range bs.TileIds() {
		w, _ := results[id][0].Wire()
		tile, err := render.DeserializeImage(w)
		if err != nil {
			return err
		}
		tiles = append(tiles, tile)
	}
	swapFrame, err := render.AssembleTiles(tiles, size, size)
	if err != nil {
		return err
	}
	fmt.Println("binary swap within 1e-6 of serial:", maxDiff(serial, swapFrame) < 1e-6)
	fmt.Printf("PPM sha256: %x\n", sha256.Sum256(frame.WritePPM()))
	return nil
}

func maxDiff(a, b *render.Image) float64 {
	var m float64
	for i := range a.Pixels {
		m = math.Max(m, math.Abs(float64(a.Pixels[i]-b.Pixels[i])))
	}
	return m
}

// Example_registration runs the third use case (§V-C): align a grid of
// overlapping 3-D microscopy tiles with the neighbor dataflow of Fig. 8.
// The tiles are cut from one specimen at known offsets with stage jitter;
// the dataflow estimates every pairwise displacement by normalized
// cross-correlation, and both solves must recover the ground truth.
func Example_registration() {
	if err := registrationExample(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// 9/9 tiles placed exactly (chain solve)
	// 9/9 tiles placed exactly (least-squares solve)
}

func registrationExample() error {
	const shards = 4
	cfg := register.Config{GridW: 3, GridH: 3, Tile: 24, Overlap: 0.15, Jitter: 2}
	tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 11)
	graph, err := cfg.Graph()
	if err != nil {
		return err
	}
	c := babelflow.NewMPI(babelflow.WithWorkers(shards))
	if err := c.Initialize(graph, babelflow.NewModuloMap(shards, graph.Size())); err != nil {
		return err
	}
	if err := cfg.Register(c, graph); err != nil {
		return err
	}
	initial, err := cfg.InitialInputs(graph, tiles)
	if err != nil {
		return err
	}
	out, err := c.Run(initial)
	if err != nil {
		return err
	}

	var ests []register.Estimate
	for y := 0; y < cfg.GridH; y++ {
		for x := 0; x < cfg.GridW; x++ {
			wire, _ := out[graph.ProcessId(x, y)][0].Wire()
			e, err := register.DeserializeEstimate(wire)
			if err != nil {
				return err
			}
			ests = append(ests, e)
		}
	}
	// exact counts the tiles a solve placed at their ground-truth offset
	// from tile (0,0).
	exact := func(pos [][]register.Position) int {
		n := 0
		for y := 0; y < cfg.GridH; y++ {
			for x := 0; x < cfg.GridW; x++ {
				tl := tiles[y*cfg.GridW+x]
				if (pos[y][x] == register.Position{X: tl.TrueX - tiles[0].TrueX, Y: tl.TrueY - tiles[0].TrueY}) {
					n++
				}
			}
		}
		return n
	}
	chain, err := register.Solve(cfg.GridW, cfg.GridH, ests)
	if err != nil {
		return err
	}
	fmt.Printf("%d/%d tiles placed exactly (chain solve)\n", exact(chain), len(tiles))
	// The least-squares solve uses every pairwise estimate, not just a
	// spanning tree, averaging out noisy correlations.
	lsq, err := register.SolveLeastSquares(cfg.GridW, cfg.GridH, ests, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%d/%d tiles placed exactly (least-squares solve)\n", exact(lsq), len(tiles))
	return nil
}

// Example_inSitu shows the coupling mode that motivates the paper (§III): a
// mock simulation advances a field over several timesteps with one goroutine
// per rank, and at every step each rank hands only its local blocks to its
// shard of the merge-tree analysis. The shards exchange what they need among
// themselves; there is no global driver and no gather of the data.
func Example_inSitu() {
	if err := inSituExample(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// step 0: in-situ analysis on 4 ranks found 6 features
	// step 1: in-situ analysis on 4 ranks found 8 features
	// step 2: in-situ analysis on 4 ranks found 9 features
}

func inSituExample() error {
	const n, ranks, steps = 24, 4, 3
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, 2)
	if err != nil {
		return err
	}
	graph, err := mergetree.NewGraph(decomp.Blocks(), 2)
	if err != nil {
		return err
	}
	cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
	taskMap := babelflow.NewGraphMap(ranks, graph)

	for step := 0; step < steps; step++ {
		// The simulation state of this timestep: the features drift with
		// the step number.
		field := data.SyntheticHCCI(n, n, n, 6, uint64(100+step))

		// One in-situ group per analysis invocation; each rank runs only
		// its shard.
		group, err := babelflow.NewInSituGroup(graph, taskMap)
		if err != nil {
			return err
		}
		if err := cfg.Register(group, graph); err != nil {
			return err
		}

		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			features = make(map[uint64]bool)
			errs     = make([]error, ranks)
		)
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				errs[rank] = analyzeShard(group, rank, decomp, graph, taskMap, field, func(rep uint64) {
					mu.Lock()
					features[rep] = true
					mu.Unlock()
				})
			}(r)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				return fmt.Errorf("rank %d: %w", rank, err)
			}
		}
		fmt.Printf("step %d: in-situ analysis on %d ranks found %d features\n", step, ranks, len(features))
	}
	return nil
}

// analyzeShard is one simulation rank's part of an in-situ step: it hands
// its shard views of only the blocks the rank owns (the owner of a block is
// the rank of the leaf task consuming it, so the analysis starts without
// moving or copying data), runs its shard, and reports the feature of every
// vertex of its segmentations.
func analyzeShard(group *babelflow.InSituGroup, rank int, decomp *data.Decomposition, graph *mergetree.Graph,
	taskMap babelflow.TaskMap, field *data.Field, feature func(uint64)) error {
	local := make(map[babelflow.TaskId][]babelflow.Payload)
	for b := 0; b < decomp.Blocks(); b++ {
		if int(taskMap.Shard(graph.LeafTask(b))) != rank {
			continue
		}
		view, err := decomp.View(field, b)
		if err != nil {
			return err
		}
		local[graph.LeafTask(b)] = []babelflow.Payload{babelflow.Object(view)}
	}
	shard, err := group.Shard(rank)
	if err != nil {
		return err
	}
	// A deadline bounds how long the simulation waits for the analysis: a
	// stuck dataflow cancels with an error testable against
	// babelflow.ErrCancelled instead of stalling the run.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := shard.RunContext(ctx, local)
	if err != nil {
		return err
	}
	for _, ps := range out {
		wire, _ := ps[0].Wire()
		seg, err := mergetree.DeserializeSegmentation(wire)
		if err != nil {
			return err
		}
		for _, rep := range seg.Labels {
			feature(rep)
		}
	}
	return nil
}
