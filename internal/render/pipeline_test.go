package render

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/babelflow/babelflow-go/internal/charm"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/legion"
	"github.com/babelflow/babelflow-go/internal/mpi"
)

func testConfig(t *testing.T, bx, by, bz int) (Config, *data.Field) {
	t.Helper()
	const n = 16
	f := data.SyntheticHCCI(n, n, n, 5, 4242)
	d, err := data.NewDecomposition(n, n, n, bx, by, bz)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Decomp: d,
		Camera: Camera{Width: n, Height: n},
		TF:     TransferFunction{Lo: 0.2, Hi: 1.2, Opacity: 0.3},
	}, f
}

// closeImages compares with a tolerance: different compositing orders
// accumulate different float rounding.
func closeImages(a, b *Image, tol float64) bool {
	if a.Width != b.Width || a.Height != b.Height {
		return false
	}
	for i := range a.Pixels {
		if math.Abs(float64(a.Pixels[i]-b.Pixels[i])) > tol {
			return false
		}
	}
	return true
}

// TestBlockRenderingCompositesToFullRender: rendering per block and
// compositing with the direct tree reproduces the serial full-volume
// render.
func TestBlockRenderingCompositesToFullRender(t *testing.T) {
	cfg, f := testConfig(t, 2, 2, 2)
	want := RenderFull(cfg.Camera, cfg.TF, f)
	got, err := NewIceT(cfg).RenderAndCompositeTree(f)
	if err != nil {
		t.Fatal(err)
	}
	if !closeImages(want, got, 1e-5) {
		t.Error("tree-composited image differs from full render")
	}
	// The image must not be trivially empty.
	var sum float64
	for _, v := range want.Pixels {
		sum += float64(v)
	}
	if sum == 0 {
		t.Fatal("degenerate test: empty image")
	}
}

// TestBinarySwapTilesMatchTreeComposite: binary-swap tiles assembled equal
// the tree-composited frame.
func TestBinarySwapTilesMatchTreeComposite(t *testing.T) {
	cfg, f := testConfig(t, 2, 2, 2)
	icet := NewIceT(cfg)
	tree, err := icet.RenderAndCompositeTree(f)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := icet.RenderAndCompositeSwap(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 8 {
		t.Fatalf("tiles = %d", len(tiles))
	}
	frame, err := AssembleTiles(tiles, cfg.Camera.Width, cfg.Camera.Height)
	if err != nil {
		t.Fatal(err)
	}
	if !closeImages(tree, frame, 1e-5) {
		t.Error("binary-swap frame differs from tree composite")
	}
}

// TestReductionDataflowMatchesIceT runs the rendering + reduction
// compositing dataflow on every controller and compares to the direct
// baseline (identical schedule, so identical bytes).
func TestReductionDataflowMatchesIceT(t *testing.T) {
	cfg, f := testConfig(t, 2, 2, 2)
	g, err := graphs.NewReduction(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewIceT(cfg).RenderAndCompositeTree(f)
	if err != nil {
		t.Fatal(err)
	}

	m := core.NewModuloMap(4, g.Size())
	cs := map[string]core.Controller{}
	mc := mpi.New()
	mc.Initialize(g, m)
	cs["mpi"] = mc
	cc := charm.New(charm.Options{PEs: 4, LBPeriod: 2})
	cc.Initialize(g, nil)
	cs["charm"] = cc
	sp := legion.NewSPMD(legion.Options{})
	sp.Initialize(g, m)
	cs["legion-spmd"] = sp
	il := legion.NewIndexLaunch(legion.Options{})
	il.Initialize(g, nil)
	cs["legion-il"] = il

	for name, c := range cs {
		t.Run(name, func(t *testing.T) {
			if err := cfg.RegisterReduction(c, g); err != nil {
				t.Fatal(err)
			}
			initial, err := cfg.InitialInputs(f, g.LeafIds())
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.Run(initial)
			if err != nil {
				t.Fatal(err)
			}
			ps, ok := out[g.Root()]
			if !ok || len(ps) != 1 {
				t.Fatalf("missing root image: %v", out)
			}
			wire, err := ps[0].Wire()
			if err != nil {
				t.Fatal(err)
			}
			img, err := DeserializeImage(wire)
			if err != nil {
				t.Fatal(err)
			}
			// The reduction graph pairs adjacent children exactly like the
			// direct tree, so results are bit-identical.
			if !img.Equal(want) {
				t.Error("dataflow image differs from IceT baseline")
			}
		})
	}
}

// TestBinarySwapDataflowMatchesBaseline runs the binary-swap dataflow and
// compares each tile with the direct swap schedule.
func TestBinarySwapDataflowMatchesBaseline(t *testing.T) {
	cfg, f := testConfig(t, 2, 2, 2)
	g, err := graphs.NewBinarySwap(8)
	if err != nil {
		t.Fatal(err)
	}
	wantTiles, err := NewIceT(cfg).RenderAndCompositeSwap(f)
	if err != nil {
		t.Fatal(err)
	}

	mc := mpi.New()
	mc.Initialize(g, core.NewModuloMap(3, g.Size()))
	if err := cfg.RegisterBinarySwap(mc, g); err != nil {
		t.Fatal(err)
	}
	initial, err := cfg.InitialInputs(f, g.LeafIds())
	if err != nil {
		t.Fatal(err)
	}
	out, err := mc.Run(initial)
	if err != nil {
		t.Fatal(err)
	}
	var gotTiles []*Image
	for _, id := range g.TileIds() {
		ps := out[id]
		if len(ps) != 1 {
			t.Fatalf("tile task %d: %d payloads", id, len(ps))
		}
		wire, _ := ps[0].Wire()
		img, err := DeserializeImage(wire)
		if err != nil {
			t.Fatal(err)
		}
		gotTiles = append(gotTiles, img)
	}
	frameGot, err := AssembleTiles(gotTiles, cfg.Camera.Width, cfg.Camera.Height)
	if err != nil {
		t.Fatal(err)
	}
	frameWant, err := AssembleTiles(wantTiles, cfg.Camera.Width, cfg.Camera.Height)
	if err != nil {
		t.Fatal(err)
	}
	if !frameGot.Equal(frameWant) {
		t.Error("binary-swap dataflow tiles differ from direct schedule")
	}
}

func TestTransferFunction(t *testing.T) {
	tf := TransferFunction{Lo: 1, Hi: 3, Opacity: 0.5}
	if _, _, _, a := tf.Sample(0.5); a != 0 {
		t.Error("below Lo should be transparent")
	}
	_, _, _, a := tf.Sample(2)
	if a != 0.25 {
		t.Errorf("mid alpha = %f, want 0.25", a)
	}
	_, _, _, a = tf.Sample(100)
	if a != 0.5 {
		t.Errorf("clamped alpha = %f, want 0.5", a)
	}
	bad := TransferFunction{Lo: 2, Hi: 2, Opacity: 1}
	if _, _, _, a := bad.Sample(5); a != 0 {
		t.Error("degenerate range should be transparent")
	}
}

func TestConfigChecks(t *testing.T) {
	cfg, _ := testConfig(t, 2, 2, 2)
	g, _ := graphs.NewReduction(4, 2)
	c := core.NewSerial()
	c.Initialize(g, nil)
	if err := cfg.RegisterReduction(c, g); err == nil {
		t.Error("block-count mismatch should fail")
	}
	bad := cfg
	bad.Camera = Camera{}
	g8, _ := graphs.NewReduction(8, 2)
	c2 := core.NewSerial()
	c2.Initialize(g8, nil)
	if err := bad.RegisterReduction(c2, g8); err == nil {
		t.Error("zero camera should fail")
	}
	if _, err := cfg.InitialInputs(data.NewField(16, 16, 16), []core.TaskId{1, 2}); err == nil {
		t.Error("wrong leaf count should fail")
	}
}

func TestCompositeErrors(t *testing.T) {
	cam := Camera{Width: 4, Height: 4}
	if _, err := CompositeTree(cam, nil); err == nil {
		t.Error("empty composite should fail")
	}
	if _, err := CompositeSwap(cam, make([]*Image, 3)); err == nil {
		t.Error("non-power-of-two swap should fail")
	}
	for _, tile := range []*Image{
		NewImage(2, 2, 0, 9),  // rows below the frame
		NewImage(2, 2, 3, 0),  // columns past the right edge
		NewImage(2, 2, 3, 2),  // ... on the last rows
		NewImage(2, 2, -1, 1), // a column left of the frame
	} {
		if _, err := AssembleTiles([]*Image{tile}, 4, 4); err == nil {
			t.Errorf("out-of-frame tile %+v should fail", tile.bounds())
		}
	}
	// A composite callback rejects an image outside the camera frame, in
	// memory or on the wire, before its rectangle can size anything.
	cfg := Config{Camera: cam}
	inside := core.Object(NewImage(1, 1, 3, 3))
	for _, bad := range []*Image{NewImage(1, 1, 4, 0), NewImage(1, 1, 0, -1), NewImage(5, 1, 0, 0)} {
		for _, p := range []core.Payload{core.Object(bad), core.Buffer(bad.Serialize())} {
			if _, err := cfg.composite([]core.Payload{inside, p}); err == nil {
				t.Errorf("composite accepted a %+v image", bad.bounds())
			}
		}
	}
}

// TestCompositeTreeOddCount exercises the odd-leaf promotion path.
func TestCompositeTreeOddCount(t *testing.T) {
	imgs := make([]*Image, 3)
	for i := range imgs {
		imgs[i] = NewImage(1, 1, 0, 0)
		imgs[i].SetPixel(0, 0, 0.1, 0.1, 0.1, 0.2, float32(i))
	}
	out, err := CompositeTree(Camera{Width: 1, Height: 1}, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, a := out.At(0, 0); a <= 0.2 || a > 1 {
		t.Errorf("alpha = %f", a)
	}
}

// TestOneBlockDataflows: with a single block, the reduction's root and the
// binary swap's one tile are also the leaf; both render the block and emit
// the dense frame RenderFull gives.
func TestOneBlockDataflows(t *testing.T) {
	cfg, f := testConfig(t, 1, 1, 1)
	want := RenderFull(cfg.Camera, cfg.TF, f)
	red, err := graphs.NewReduction(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := graphs.NewBinarySwap(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name     string
		g        core.TaskGraph
		leafs    []core.TaskId
		register func(core.CallbackRegistrar) error
		sink     core.TaskId
	}{
		{"reduction", red, red.LeafIds(), func(r core.CallbackRegistrar) error { return cfg.RegisterReduction(r, red) }, red.Root()},
		{"binary-swap", swap, swap.LeafIds(), func(r core.CallbackRegistrar) error { return cfg.RegisterBinarySwap(r, swap) }, swap.TileIds()[0]},
	} {
		s := core.NewSerial()
		if err := s.Initialize(p.g, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.register(s); err != nil {
			t.Fatal(err)
		}
		initial, err := cfg.InitialInputs(f, p.leafs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(initial)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got, ok := out[p.sink][0].Object.(*Image); !ok || !got.Equal(want) {
			t.Errorf("%s: the one-block frame differs from RenderFull", p.name)
		}
	}
}

// TestFig10dImage produces the composited frame of the full pipeline (the
// Fig. 10d analogue) and checks the PPM output is a well-formed, non-empty
// image.
func TestFig10dImage(t *testing.T) {
	cfg, f := testConfig(t, 2, 2, 2)
	frame, err := NewIceT(cfg).RenderAndCompositeTree(f)
	if err != nil {
		t.Fatal(err)
	}
	ppm := frame.WritePPM()
	if !strings.HasPrefix(string(ppm), "P6\n16 16\n255\n") {
		t.Fatalf("bad PPM header: %q", ppm[:14])
	}
	nonzero := 0
	for _, b := range ppm[len("P6\n16 16\n255\n"):] {
		if b != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("composited image is entirely black")
	}
}

// TestBlockViewMatchesExtract checks the leaf inputs InitialInputs hands
// out against the blocks they replaced, over one block, a non-cubic grid
// and 2×2×8, with cameras narrower than, as wide as and wider than the
// domain: a view serializes to the extracted block's bytes, and the leaf
// renders it, and its wire form after CloneForWire, to the image of the
// extracted block, which made dense is refRenderBlock's.
func TestBlockViewMatchesExtract(t *testing.T) {
	tf := TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4}
	rng := data.NewRand(37)
	for _, g := range []struct{ nx, ny, nz, bx, by, bz int }{
		{12, 10, 8, 1, 1, 1},
		{12, 18, 10, 3, 2, 2},
		{16, 16, 32, 2, 2, 8},
	} {
		d, err := data.NewDecomposition(g.nx, g.ny, g.nz, g.bx, g.by, g.bz)
		if err != nil {
			t.Fatal(err)
		}
		f := data.NewField(g.nx, g.ny, g.nz)
		for i := range f.Values {
			f.Values[i] = float32(2*rng.Float64() - 0.5)
		}
		ids := make([]core.TaskId, d.Blocks())
		for i := range ids {
			ids[i] = core.TaskId(100 + i)
		}
		for _, cam := range []Camera{
			{Width: g.nx / 2, Height: g.ny/2 + 1},
			{Width: g.nx, Height: g.ny},
			{Width: 2*g.nx + 3, Height: 3 * g.ny},
		} {
			cfg := Config{Decomp: d, Camera: cam, TF: tf}
			initial, err := cfg.InitialInputs(f, ids)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				where := fmt.Sprintf("%dx%dx%d in %dx%dx%d, %dx%d camera, block %d",
					g.nx, g.ny, g.nz, g.bx, g.by, g.bz, cam.Width, cam.Height, i)
				p := initial[id][0]
				blk, err := d.Extract(f, i)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := p.Wire(); err != nil || !bytes.Equal(got, blk.Serialize()) {
					t.Fatalf("%s: the view's wire form is not the extracted block (%v)", where, err)
				}
				want := RenderBlock(cam, tf, d, i, blk)
				if !bytes.Equal(want.window(cam.frame()).Serialize(), refRenderBlock(cam, tf, d, i, blk).Serialize()) {
					t.Fatalf("%s: the extracted block's image differs from the reference", where)
				}
				cloned, err := p.CloneForWire()
				if err != nil {
					t.Fatal(err)
				}
				for name, in := range map[string]core.Payload{"view": p, "cloned": cloned} {
					img, err := cfg.leafImage(in, id, i)
					if err != nil {
						t.Fatalf("%s, %s: %v", where, name, err)
					}
					if !bytes.Equal(img.Serialize(), want.Serialize()) {
						t.Errorf("%s, %s: the leaf's image differs from the extracted block's", where, name)
					}
				}
			}
		}
	}
}

// TestLeafInputErrors: a leaf given an input that is not its block fails
// with an error naming the task and the block, where it used to panic on a
// block smaller than the core or silently render another block's view.
func TestLeafInputErrors(t *testing.T) {
	cfg, f := testConfig(t, 2, 2, 2)
	other, err := data.NewDecomposition(16, 16, 16, 1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	small := data.NewField(2, 2, 2)
	view := func(d *data.Decomposition, i int) core.Payload {
		v, err := d.View(f, i)
		if err != nil {
			t.Fatal(err)
		}
		return core.Object(v)
	}
	for _, c := range []struct {
		name string
		in   core.Payload
		want string
	}{
		{"wire-form block smaller than the core", core.Buffer(small.Serialize()), "task 7 renders block 0 (9x9x9) but got a 2x2x2 field"},
		{"in-memory block smaller than the core", core.Object(small), "task 7 renders block 0 (9x9x9) but got a 2x2x2 field"},
		{"view of another block", view(cfg.Decomp, 1), "task 7 renders block 0 but got a view of block 1"},
		{"view of another decomposition", view(other, 0), "task 7 renders block 0 but got a view of block 0 of a 1x1x8 grid"},
		{"an image", core.Object(NewImage(1, 1, 0, 0)), "payload object is *render.Image"},
	} {
		_, err := cfg.leafImage(c.in, 7, 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
