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
