package mergetree

import (
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/mpi"
)

// correctionShape builds the inputs of one correction task of the
// benchmark's merge tree — 128³ in 2×2×8 blocks at threshold 0.3: the block
// with the largest local tree, as its view and extracted, that tree, and
// the augmented boundary tree the root join sends down (every block's
// boundary tree, merged and reduced).
func correctionShape(tb testing.TB) (view *data.View, blk *data.Field, local, aug *Tree) {
	tb.Helper()
	const n = 128
	field := data.SyntheticHCCI(n, n, n, 8, 2026)
	d, err := data.NewDecomposition(n, n, n, 2, 2, 8)
	if err != nil {
		tb.Fatal(err)
	}
	keep := BoundaryKeeper(d)
	var boundaries []*Tree
	for i := 0; i < d.Blocks(); i++ {
		b, _ := d.Extract(field, i)
		o := d.Block(i)
		tr := FromField(b, o.X0, o.Y0, o.Z0, n, n, 0.3)
		if local == nil || tr.Len() > local.Len() {
			blk, local = b, tr
			if view, err = d.View(field, i); err != nil {
				tb.Fatal(err)
			}
		}
		boundaries = append(boundaries, tr.Reduce(keep))
	}
	return view, blk, local, Merge(boundaries...).Reduce(keep)
}

// BenchmarkFromField measures one leaf task's local tree: the fullest block
// of the 128³ field in 32 blocks.
func BenchmarkFromField(b *testing.B) {
	view, blk, local, _ := correctionShape(b)
	d, i := view.Of()
	o := d.Block(i)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if tr := FromField(blk, o.X0, o.Y0, o.Z0, 128, 128, 0.3); tr.Len() != local.Len() {
			b.Fatal("bad tree")
		}
	}
}

// BenchmarkLocal measures the same leaf as its callback computes it, from
// the block's view, read in place at the volume's strides as the leaves
// read it, and from the extracted block, as a leaf on another rank gets
// it. Both read a warm cache.
func BenchmarkLocal(b *testing.B) {
	view, blk, local, _ := correctionShape(b)
	d, i := view.Of()
	cfg := Config{Decomp: d, Threshold: 0.3}
	for _, c := range []struct {
		name string
		in   core.Payload
	}{
		{"view", core.Object(view)},
		{"block", core.Object(blk)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if tr, err := cfg.localTree(c.in, 0, i); err != nil || tr.Len() != local.Len() {
					b.Fatalf("bad tree (%v)", err)
				}
			}
		})
	}
}

// BenchmarkInitialInputs measures mergetree-mem's leaf inputs: the 32
// blocks of a 128³ field addressed to their leaves.
func BenchmarkInitialInputs(b *testing.B) {
	cfg, field, g := inputsShape(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := cfg.InitialInputs(field, g); err != nil {
			b.Fatal(err)
		}
	}
}

// inputsShape is the mergetree-mem decomposition of an n³ field into 32
// blocks, threshold 0.3, with its 2-way graph.
func inputsShape(tb testing.TB, n int) (Config, *data.Field, *Graph) {
	tb.Helper()
	d, err := data.NewDecomposition(n, n, n, 2, 2, 8)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := NewGraph(d.Blocks(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Decomp: d, Threshold: 0.3}, data.NewField(n, n, n), g
}

// TestInitialInputsAllocationPins: InitialInputs copies no voxel. It makes
// as many allocations for 32 blocks of 32³ as of 128³ — the views, their
// payloads and the map — and at most two per block.
func TestInitialInputsAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var allocs [2]float64
	for k, n := range []int{32, 128} {
		cfg, field, g := inputsShape(t, n)
		allocs[k] = leastAllocs(func() {
			if _, err := cfg.InitialInputs(field, g); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("InitialInputs: %.0f allocations on 32³ but %.0f on 128³", allocs[0], allocs[1])
	}
	if perBlock := allocs[1] / 32; perBlock > 2 {
		t.Errorf("InitialInputs allocates %v per block, pinned at 2", perBlock)
	}
	t.Logf("InitialInputs, 32 blocks: %v allocations", allocs[1])
}

// BenchmarkMerge measures one correction task: a block's local tree merged
// with the augmented boundary tree.
func BenchmarkMerge(b *testing.B) {
	_, _, local, aug := correctionShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr := Merge(local, aug); tr.Len() < local.Len() {
			b.Fatal("bad tree")
		}
	}
}

// BenchmarkDeserialize measures the decoding of the trees a correction
// task receives and sends over the wire: the local tree, the augmented
// boundary tree and their merge.
func BenchmarkDeserialize(b *testing.B) {
	_, _, local, aug := correctionShape(b)
	bufs := [][]byte{local.Serialize(), aug.Serialize(), Merge(local, aug).Serialize()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, buf := range bufs {
			if _, err := Deserialize(buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSegment measures the superlevel-set labeling of a corrected
// block tree, as the segmentation tasks run it.
func BenchmarkSegment(b *testing.B) {
	_, _, local, aug := correctionShape(b)
	tr := Merge(local, aug)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if labels := tr.Segment(0.3); len(labels) == 0 {
			b.Fatal("no labels")
		}
	}
}

// leastAllocs is the least of three testing.AllocsPerRun averages of f.
// AllocsPerRun counts the whole process's mallocs, and other goroutines of
// the test binary can only add to that count, so the least of three is
// the closest to f's own figure.
func leastAllocs(f func()) float64 {
	least := testing.AllocsPerRun(20, f)
	for i := 0; i < 2; i++ {
		least = min(least, testing.AllocsPerRun(20, f))
	}
	return least
}

// TestMergeTreeAllocationPins pins that FromField, Merge, Reduce and
// Deserialize make the same number of allocations on a 16³ and a 64³ block
// — every array is presized, none grows by append — and at most a ceiling
// each: a call allocates its result tree and takes its scratch (Merge's
// ancestry memo and visit list, Deserialize's bucket index) from the pool.
func TestMergeTreeAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(n int) [4]float64 {
		blk := data.SyntheticHCCI(n, n, n, 8, 7)
		d, _ := data.NewDecomposition(n, n, n, 2, 2, 2)
		keep := BoundaryKeeper(d)
		local := FromField(blk, 0, 0, 0, n, n, 0.3)
		boundary := local.Reduce(keep)
		wire := local.Serialize()
		return [4]float64{
			leastAllocs(func() { FromField(blk, 0, 0, 0, n, n, 0.3) }),
			leastAllocs(func() { Merge(local, boundary) }),
			leastAllocs(func() { local.Reduce(keep) }),
			leastAllocs(func() { Deserialize(wire) }),
		}
	}
	small, large := allocs(16), allocs(64)
	// Deserialize: the tree and its three arrays.
	ceiling := [4]float64{4, 4, 4, 4}
	for i, name := range []string{"FromField", "Merge", "Reduce", "Deserialize"} {
		if small[i] != large[i] {
			t.Errorf("%s: %.0f allocations on 16³ but %.0f on 64³", name, small[i], large[i])
		}
		if large[i] > ceiling[i] {
			t.Errorf("%s: %.0f allocations per call, pinned at %.0f", name, large[i], ceiling[i])
		}
	}
	t.Logf("allocations per call (FromField, Merge, Reduce, Deserialize): %v", small)
}

// BenchmarkRun is the use case end to end at the mergetree-mem bench's
// shape — 128³ in 32 blocks, a 2-way graph, threshold 0.3 — on the serial
// controller and on mpi with 2 ranks of 2 workers placed by GraphMap. The
// field is built once and each run's inputs, views of it, are addressed
// outside the timer, so a run is the dataflow alone.
func BenchmarkRun(b *testing.B) {
	const n, blocks = 128, 32
	field := data.SyntheticHCCI(n, n, n, 8, 2026)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGraph(blocks, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Decomp: decomp, Threshold: 0.3}
	for _, bc := range []struct {
		name string
		c    core.Controller
		tmap core.TaskMap
	}{
		{"serial", core.NewSerial(), nil},
		{"mpi", mpi.New(mpi.WithWorkers(2)), core.NewGraphMap(2, g)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if err := bc.c.Initialize(g, bc.tmap); err != nil {
				b.Fatal(err)
			}
			if err := cfg.Register(bc.c, g); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				initial, err := cfg.InitialInputs(field, g)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if out, err := bc.c.Run(initial); err != nil || len(out) != blocks {
					b.Fatalf("run: %d sinks, %v", len(out), err)
				}
			}
		})
	}
}

// TestZipStepsStarOverChain merges a star — every node of the top three
// quarters of a chain attached to the chain's lowest node — into the chain.
// Without the ancestry memo each star arc walks the chain down to its
// root, about 7.5 million steps in all; with it the zip is linear.
func TestZipStepsStarOverChain(t *testing.T) {
	const n = 4001
	chain, star := NewTree(), NewTree()
	for i := 0; i < n; i++ {
		chain.ids, chain.val, chain.par = append(chain.ids, uint64(i)), append(chain.val, float32(i)), append(chain.par, int32(i)-1)
		if i == 0 || i > n/4 {
			star.ids, star.val, star.par = append(star.ids, uint64(i)), append(star.val, float32(i)), append(star.par, 0)
		}
	}
	star.par[0] = -1
	for _, trees := range [][]*Tree{{chain, star}, {star, chain}} {
		got, base, steps := merge(trees)
		if !got.Equal(chain) {
			t.Fatal("the star's arcs changed the chain's merge tree")
		}
		if trees[base] != chain {
			t.Errorf("base is tree %d, want the chain", base)
		}
		if steps > 4*n {
			t.Errorf("%d zip steps for %d nodes, want at most %d", steps, n, 4*n)
		}
		t.Logf("%d zip steps for %d nodes", steps, n)
	}
}

// TestMergeBaseRule merges a six-node chain with a later, smaller tree
// that gives a shared vertex another value. Where the new value reverses
// one of the chain's arcs, the chain is not the merge tree of its own arcs
// under the merged values, so the base must be the last tree; where every
// arc keeps its direction, the larger chain stays the base. Both results
// must equal the reference's.
func TestMergeBaseRule(t *testing.T) {
	chain := lineField(6, 5, 4, 3, 2, 1)
	for _, c := range []struct {
		name string
		last *data.Field // over ids 2 and 3; the chain has 4 and 3 there
		base int
	}{
		{"reversed arc", lineField(4, 9), 1},
		{"arcs kept", lineField(4, 2.5), 0},
	} {
		trees := []*Tree{FromField(chain, 0, 0, 0, 6, 1, -100), FromField(c.last, 2, 0, 0, 6, 1, -100)}
		want := refMerge(refFromField(chain, 0, 0, 0, 6, 1, -100), refFromField(c.last, 2, 0, 0, 6, 1, -100))
		got, base, _ := merge(trees)
		if base != c.base {
			t.Errorf("%s: base is tree %d, want %d", c.name, base, c.base)
		}
		if !got.Equal(want.tree()) || string(got.Serialize()) != string(want.serialize()) {
			t.Errorf("%s: Merge differs from the reference", c.name)
		}
	}
}

// TestMergeArcsInAnyDirection merges decoded trees whose parent arcs go up
// or close a cycle, which Deserialize does not reject. Neither can be the
// base, and the zips must still end with the reference's tree.
func TestMergeArcsInAnyDirection(t *testing.T) {
	value := map[uint64]float32{1: 1, 2: 2, 3: 3, 4: 2}
	for _, parent := range []map[uint64]uint64{
		{1: 2, 2: 3},       // both arcs go up
		{1: 2, 2: 3, 3: 1}, // a cycle
	} {
		odd := &refTree{value: value, parent: parent}
		small := &refTree{value: map[uint64]float32{3: 3, 4: 2}, parent: map[uint64]uint64{3: 4}}
		got, base, _ := merge([]*Tree{odd.tree(), small.tree()})
		if want := refMerge(odd, small); base != 1 || !got.Equal(want.tree()) {
			t.Errorf("arcs %v: base %d, want 1; tree equals the reference: %v", parent, base, got.Equal(want.tree()))
		}
	}
}

// zipCounter registers callbacks with a controller, wrapping the join and
// correction callbacks so that each first repeats its merge through merge,
// summing zip steps and merged nodes. The serial controller runs one
// callback at a time.
type zipCounter struct {
	core.CallbackRegistrar
	steps, nodes int
}

func (z *zipCounter) RegisterCallback(cb core.CallbackId, fn core.Callback) error {
	if cb != CBJoin && cb != CBCorrection {
		return z.CallbackRegistrar.RegisterCallback(cb, fn)
	}
	return z.CallbackRegistrar.RegisterCallback(cb, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		trees := make([]*Tree, len(in))
		for i, p := range in {
			tr, err := asTree(p)
			if err != nil {
				return nil, err
			}
			trees[i] = tr
		}
		merged, _, steps := merge(trees)
		z.steps, z.nodes = z.steps+steps, z.nodes+merged.Len()
		return fn(in, id)
	})
}

// TestZipStepsPerRun bounds the zip work of a whole run at the
// mergetree-mem bench's shape (128³ in 32 blocks, a 2-way graph, threshold
// 0.3): summed over every join and correction, the zips take at most 1.5
// steps per merged node.
func TestZipStepsPerRun(t *testing.T) {
	const n, blocks = 128, 32
	field := data.SyntheticHCCI(n, n, n, 8, 2026)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(blocks, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSerial()
	if err := s.Initialize(g, nil); err != nil {
		t.Fatal(err)
	}
	z := &zipCounter{CallbackRegistrar: s}
	cfg := Config{Decomp: decomp, Threshold: 0.3}
	if err := cfg.Register(z, g); err != nil {
		t.Fatal(err)
	}
	initial, err := cfg.InitialInputs(field, g)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := s.Run(initial); err != nil || len(out) != blocks {
		t.Fatalf("run: %d sinks, %v", len(out), err)
	}
	if z.steps > z.nodes*3/2 {
		t.Errorf("%d zip steps over %d merged nodes, want at most 1.5 per node", z.steps, z.nodes)
	}
	t.Logf("%d zip steps over %d merged nodes", z.steps, z.nodes)
}
