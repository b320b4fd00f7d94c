package mergetree

import (
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/mpi"
)

// correctionShape builds the inputs of one correction task of the
// benchmark's merge tree — 128³ in 2×2×8 blocks at threshold 0.3: the block
// with the largest local tree, its origin, that tree, and the augmented
// boundary tree the root join sends down (every block's boundary tree,
// merged and reduced).
func correctionShape(tb testing.TB) (blk *data.Field, origin data.Block, local, aug *Tree) {
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
			blk, origin, local = b, o, tr
		}
		boundaries = append(boundaries, tr.Reduce(keep))
	}
	return blk, origin, local, Merge(boundaries...).Reduce(keep)
}

// BenchmarkFromField measures one leaf task's local tree: the fullest block
// of the 128³ field in 32 blocks.
func BenchmarkFromField(b *testing.B) {
	blk, o, local, _ := correctionShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr := FromField(blk, o.X0, o.Y0, o.Z0, 128, 128, 0.3); tr.Len() != local.Len() {
			b.Fatal("bad tree")
		}
	}
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

// TestMergeTreeAllocationPins pins that FromField, Merge and Reduce make
// the same number of allocations on a 16³ and a 64³ block — every array is
// presized, none grows by append — and at most a ceiling each: a call
// allocates its result tree and takes its scratch from the pool.
func TestMergeTreeAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(n int) [3]float64 {
		blk := data.SyntheticHCCI(n, n, n, 8, 7)
		d, _ := data.NewDecomposition(n, n, n, 2, 2, 2)
		keep := BoundaryKeeper(d)
		local := FromField(blk, 0, 0, 0, n, n, 0.3)
		boundary := local.Reduce(keep)
		return [3]float64{
			leastAllocs(func() { FromField(blk, 0, 0, 0, n, n, 0.3) }),
			leastAllocs(func() { Merge(local, boundary) }),
			leastAllocs(func() { local.Reduce(keep) }),
		}
	}
	small, large := allocs(16), allocs(64)
	ceiling := [3]float64{4, 4, 4}
	for i, name := range []string{"FromField", "Merge", "Reduce"} {
		if small[i] != large[i] {
			t.Errorf("%s: %.0f allocations on 16³ but %.0f on 64³", name, small[i], large[i])
		}
		if large[i] > ceiling[i] {
			t.Errorf("%s: %.0f allocations per call, pinned at %.0f", name, large[i], ceiling[i])
		}
	}
	t.Logf("allocations per call (FromField, Merge, Reduce): %v", small)
}

// BenchmarkRun is the use case end to end at the mergetree-mem bench's
// shape — 128³ in 32 blocks, a 2-way graph, threshold 0.3 — on the serial
// controller and on mpi with 2 ranks of 2 workers placed by GraphMap. The
// field is built once and each run's inputs are extracted outside the
// timer, so a run is the dataflow alone.
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
