package render

import (
	"runtime"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
)

// leafShape builds the input of one render-tcp leaf task: 256³ in 2×2×8
// blocks, the block with the most samples at or above the transfer
// function's Lo, the use case's 256² camera and transfer function. It
// returns the volume and that block both as its view and extracted.
func leafShape(tb testing.TB) (cam Camera, tf TransferFunction, field *data.Field, view *data.View, blk *data.Field) {
	tb.Helper()
	const n = 256
	field = data.SyntheticHCCI(n, n, n, 6, 7)
	d, err := data.NewDecomposition(n, n, n, 2, 2, 8)
	if err != nil {
		tb.Fatal(err)
	}
	cam, tf = Camera{Width: n, Height: n}, TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4}
	most := -1
	for i := 0; i < d.Blocks(); i++ {
		b, _ := d.Extract(field, i)
		visible := 0
		for _, v := range b.Values {
			if v >= tf.Lo {
				visible++
			}
		}
		if visible > most {
			most, blk = visible, b
			if view, err = d.View(field, i); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return cam, tf, field, view, blk
}

// BenchmarkRenderBlock measures one leaf task of render-tcp, a 128×128×32
// block (ghost layer included) cast into a 256² frame, from the extracted
// block and in place from the volume, as the leaves do. Both read a warm
// cache, so a difference between the two is the cost of the volume's
// strides to the kernel, not cache warmth.
func BenchmarkRenderBlock(b *testing.B) {
	cam, tf, _, view, blk := leafShape(b)
	d, i := view.Of()
	b.Run("extracted", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			imageSink = RenderBlock(cam, tf, d, i, blk)
		}
	})
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			imageSink = renderView(cam, tf, view)
		}
	})
}

// BenchmarkInitialInputs measures render-tcp's leaf inputs: the 32 blocks
// of a 256³ volume addressed to their leaves.
func BenchmarkInitialInputs(b *testing.B) {
	cfg, f, ids := inputsShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := cfg.InitialInputs(f, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// inputsShape is render-tcp's decomposition of a 256³ volume into 32
// blocks, with a leaf id per block.
func inputsShape(tb testing.TB) (Config, *data.Field, []core.TaskId) {
	tb.Helper()
	d, err := data.NewDecomposition(256, 256, 256, 2, 2, 8)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]core.TaskId, d.Blocks())
	for i := range ids {
		ids[i] = core.TaskId(i)
	}
	return Config{Decomp: d}, data.NewField(256, 256, 256), ids
}

// BenchmarkComposite measures one internal node of render-tcp's reduction
// (256³ in 2×2×8 blocks, 256² camera, valence 2): the root's first child,
// which composites leaves 8–15 over leaves 0–7. Over composites into a dst
// that covers the union, so each iteration starts from a fresh copy.
func BenchmarkComposite(b *testing.B) {
	cam, tf, field, view, _ := leafShape(b)
	var leaves []*Image
	d, _ := view.Of()
	views, err := d.Views(field)
	if err != nil {
		b.Fatal(err)
	}
	for i := range views[:16] {
		leaves = append(leaves, renderView(cam, tf, &views[i]))
	}
	// fold composites a power-of-two run of leaves pairwise, as the
	// reduction's internal nodes below the measured one do.
	var fold func(ims []*Image) *Image
	fold = func(ims []*Image) *Image {
		if len(ims) == 1 {
			return ims[0]
		}
		return fold(ims[:len(ims)/2]).Over(fold(ims[len(ims)/2:]))
	}
	left, right := fold(leaves[:8]), fold(leaves[8:])
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		dst := left.window(left.bounds())
		b.StartTimer()
		imageSink = dst.Over(right)
	}
}

// TestRenderAllocationPins pins the allocations of a leaf, of its inputs
// and of the image codec: RenderBlock, and the render of a view, make the
// image (struct, pixels, depth) and its two column tables, Serialize the
// buffer, DeserializeImage the image. InitialInputs makes no per-block
// allocation beyond two and copies no voxel: render-tcp's 32 blocks of 256³
// take well under 64 KiB, where extracting them took 72 MB.
func TestRenderAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 32
	field := data.SyntheticHCCI(n, n, n, 6, 7)
	d, _ := data.NewDecomposition(n, n, n, 2, 2, 2)
	blk, _ := d.Extract(field, 0)
	view, err := d.View(field, 0)
	if err != nil {
		t.Fatal(err)
	}
	cam, tf := Camera{Width: 48, Height: 24}, TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4}
	im := RenderBlock(cam, tf, d, 0, blk)
	wire := im.Serialize()
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"RenderBlock", 5, func() { imageSink = RenderBlock(cam, tf, d, 0, blk) }},
		{"render from a view", 5, func() { imageSink = renderView(cam, tf, view) }},
		{"Serialize", 1, func() { wireSink = im.Serialize() }},
		{"DeserializeImage", 3, func() { imageSink, _ = DeserializeImage(wire) }},
	} {
		if a := testing.AllocsPerRun(20, c.f); a > c.max {
			t.Errorf("%s allocates %v per call, pinned at %v", c.name, a, c.max)
		}
	}

	cfg, f, ids := inputsShape(t)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := cfg.InitialInputs(f, ids); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call beyond runs.
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("InitialInputs, %d blocks: %v allocs, %d B per call", len(ids), allocs, perCall)
	if perBlock := allocs / float64(len(ids)); perBlock > 2 {
		t.Errorf("InitialInputs allocates %v per block, pinned at 2", perBlock)
	}
	if perCall >= 64<<10 {
		t.Errorf("InitialInputs allocates %d B per call of %d blocks, pinned below 64 KiB", perCall, len(ids))
	}
}
