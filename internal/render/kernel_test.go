package render

import (
	"testing"

	"github.com/babelflow/babelflow-go/internal/data"
)

// leafShape builds the input of one render-tcp leaf task: 256³ in 2×2×8
// blocks, the block with the most samples at or above the transfer
// function's Lo, the use case's 256² camera and transfer function.
func leafShape(tb testing.TB) (cam Camera, tf TransferFunction, d *data.Decomposition, index int, blk *data.Field) {
	tb.Helper()
	const n = 256
	field := data.SyntheticHCCI(n, n, n, 6, 7)
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
			most, index, blk = visible, i, b
		}
	}
	return cam, tf, d, index, blk
}

// BenchmarkRenderBlock measures one leaf task of render-tcp: a 128×128×32
// block (ghost layer included) cast into a 256² frame.
func BenchmarkRenderBlock(b *testing.B) {
	cam, tf, d, i, blk := leafShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		imageSink = RenderBlock(cam, tf, d, i, blk)
	}
}

// BenchmarkComposite measures one internal node of render-tcp's reduction
// (256³ in 2×2×8 blocks, 256² camera, valence 2): the root's first child,
// which composites leaves 8–15 over leaves 0–7. Over composites into a dst
// that covers the union, so each iteration starts from a fresh copy.
func BenchmarkComposite(b *testing.B) {
	cam, tf, d, _, _ := leafShape(b)
	field := data.SyntheticHCCI(256, 256, 256, 6, 7)
	var leaves []*Image
	for i := 0; i < 16; i++ {
		blk, err := d.Extract(field, i)
		if err != nil {
			b.Fatal(err)
		}
		leaves = append(leaves, RenderBlock(cam, tf, d, i, blk))
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

// TestRenderAllocationPins pins the allocations of a leaf and of the image
// codec: RenderBlock makes the image (struct, pixels, depth) and its two
// column tables, Serialize the buffer, DeserializeImage the image.
func TestRenderAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 32
	field := data.SyntheticHCCI(n, n, n, 6, 7)
	d, _ := data.NewDecomposition(n, n, n, 2, 2, 2)
	blk, _ := d.Extract(field, 0)
	cam, tf := Camera{Width: 48, Height: 24}, TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4}
	im := RenderBlock(cam, tf, d, 0, blk)
	wire := im.Serialize()
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"RenderBlock", 5, func() { imageSink = RenderBlock(cam, tf, d, 0, blk) }},
		{"Serialize", 1, func() { wireSink = im.Serialize() }},
		{"DeserializeImage", 3, func() { imageSink, _ = DeserializeImage(wire) }},
	} {
		if a := testing.AllocsPerRun(20, c.f); a > c.max {
			t.Errorf("%s allocates %v per call, pinned at %v", c.name, a, c.max)
		}
	}
}
