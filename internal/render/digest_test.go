package render_test

import (
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/render"
	"github.com/babelflow/babelflow-go/internal/serve"
)

// TestSerialDigestsPinned pins the sink digests of serial render +
// composite runs, reduction and binary swap, so a kernel or codec change
// that moves a single pixel bit fails here. 64³ in 8 blocks is the square
// camera of the use case; 128³ in 32 blocks with a 96×160 camera has a
// frame narrower than the domain in x and wider in y, so several pixels
// share a voxel column and some columns are skipped.
func TestSerialDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		n, bz, w, h     int
		reduce, swapped string
	}{
		{64, 2, 64, 64,
			"c4cac6130be9701cc661a0fde57eb6a08bb732e30cbd310d2d73c2569e30f52c",
			"47d16d7ad86aa7cff56f3beb1509ed06370b8d71f10caf04059f85dc53ad5925"},
		{128, 8, 96, 160,
			"fc6f1efd987c750d3dbc5f31bed44bbd6a19bf18a351d67ac48d9ef709cead3f",
			"6ef1bb2f8faf3ff212875e81f794e6fc28e630ca91637eaa86503a85cd6bbf5b"},
	} {
		field := data.SyntheticHCCI(c.n, c.n, c.n, 6, 7)
		decomp, err := data.NewDecomposition(c.n, c.n, c.n, 2, 2, c.bz)
		if err != nil {
			t.Fatal(err)
		}
		cfg := render.Config{
			Decomp: decomp,
			Camera: render.Camera{Width: c.w, Height: c.h},
			TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
		}
		blocks := decomp.Blocks()
		red, err := graphs.NewReduction(blocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		swap, err := graphs.NewBinarySwap(blocks)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name     string
			g        core.TaskGraph
			leafs    []core.TaskId
			register func(core.CallbackRegistrar) error
			want     string
		}{
			{"reduction", red, red.LeafIds(), func(r core.CallbackRegistrar) error { return cfg.RegisterReduction(r, red) }, c.reduce},
			{"binary-swap", swap, swap.LeafIds(), func(r core.CallbackRegistrar) error { return cfg.RegisterBinarySwap(r, swap) }, c.swapped},
		} {
			s := core.NewSerial()
			if err := s.Initialize(p.g, nil); err != nil {
				t.Fatal(err)
			}
			if err := p.register(s); err != nil {
				t.Fatal(err)
			}
			initial, err := cfg.InitialInputs(field, p.leafs)
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.Run(initial)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := serve.SinkDigest(out); err != nil || got != p.want {
				t.Errorf("%d³/%d blocks, %dx%d camera, %s: digest %s (%v), want %s", c.n, blocks, c.w, c.h, p.name, got, err, p.want)
			}
		}
	}
}
