package render

import (
	"bytes"
	"math"
	"testing"

	"github.com/babelflow/babelflow-go/internal/data"
)

// refRenderBlock is the per-ray kernel that the plane-by-plane RenderBlock
// replaced, kept as the reference it is checked against: every pixel maps
// to its voxel column and walks it front to back, one z plane apart in
// memory, sampling the transfer function at every voxel.
func refRenderBlock(cam Camera, tf TransferFunction, d *data.Decomposition, blockIndex int, block *data.Field) *Image {
	img := NewImage(cam.Width, cam.Height, 0, 0)
	b := d.Block(blockIndex)
	sx, sy, sz := d.NX/d.BXN, d.NY/d.BYN, d.NZ/d.BZN
	coreX1, coreY1 := b.X0+sx, b.Y0+sy
	zEnd := b.Z0 + sz
	for py := 0; py < cam.Height; py++ {
		for px := 0; px < cam.Width; px++ {
			gx, gy := px*d.NX/cam.Width, py*d.NY/cam.Height
			if gx < b.X0 || gx >= coreX1 || gy < b.Y0 || gy >= coreY1 {
				continue
			}
			var cr, cg, cb, ca float32
			depth := float32(math.Inf(1))
			for z := b.Z0; z < zEnd; z++ {
				v := block.At(gx-b.X0, gy-b.Y0, z-b.Z0)
				sr, sg, sb, sa := tf.Sample(v)
				if sa > 0 && math.IsInf(float64(depth), 1) {
					depth = float32(z)
				}
				cr += (1 - ca) * sr
				cg += (1 - ca) * sg
				cb += (1 - ca) * sb
				ca += (1 - ca) * sa
			}
			img.SetPixel(px, py, cr, cg, cb, ca, depth)
		}
	}
	return img
}

// TestKernelMatchesReference renders seeded random volumes with both
// kernels and compares the encoded images byte for byte, NaN payloads and
// signed zeros included. The draws vary the domain and its block grid
// (ghost layers included), cameras wider, narrower and not divisible
// against the domain, transfer functions with Lo below every voxel, with
// Hi <= Lo and with Opacity > 1, and volumes holding NaN, ±Inf, −0 and
// values exactly at Lo.
//
// Opacity +Inf is the one transfer function under which a sample exactly
// at Lo is not transparent (its alpha is 0·Inf, a NaN), so the draws that
// use it tell skipping v < Lo apart from skipping v <= Lo.
//
// A NaN voxel carries the payload the host's arithmetic gives 0·Inf, so
// every NaN in a draw has the same bits. Where NaNs of two payloads meet,
// which one survives follows the operand order the compiler emits, which
// neither kernel controls.
func TestKernelMatchesReference(t *testing.T) {
	inf, zero := float32(math.Inf(1)), float32(0)
	nan := zero * inf
	los := []float32{0.25, 0, -2} // -2 lies below every voxel but -Inf
	spans := []float32{1.25, 0.01, 0, -0.5}
	opacities := []float32{0.4, 1, 3.5, inf}
	rng := data.NewRand(32)
	pick := func(n int) int { return 1 + rng.Intn(n) }
	draws, blocks := 0, 0
	for ; draws < 1200; draws++ {
		bx, by, bz := pick(3), pick(3), pick(3)
		nx, ny, nz := bx*pick(4), by*pick(4), bz*pick(4)
		d, err := data.NewDecomposition(nx, ny, nz, bx, by, bz)
		if err != nil {
			t.Fatal(err)
		}
		cam := Camera{Width: pick(2*nx + 2), Height: pick(2*ny + 2)}
		lo := los[rng.Intn(len(los))]
		tf := TransferFunction{Lo: lo, Hi: lo + spans[rng.Intn(len(spans))], Opacity: opacities[rng.Intn(len(opacities))]}
		specials := []float32{lo, nan, inf, float32(math.Copysign(0, -1)), 0}
		if lo != -2 {
			specials = append(specials, -inf)
		}
		special := rng.Float64() // the share of special voxels in this draw
		f := data.NewField(nx, ny, nz)
		for i := range f.Values {
			if rng.Float64() < special {
				f.Values[i] = specials[rng.Intn(len(specials))]
			} else {
				f.Values[i] = float32(2*rng.Float64() - 0.5)
			}
		}
		for i := 0; i < d.Blocks(); i++ {
			blk, err := d.Extract(f, i)
			if err != nil {
				t.Fatal(err)
			}
			want := refRenderBlock(cam, tf, d, i, blk).Serialize()
			if got := RenderBlock(cam, tf, d, i, blk).Serialize(); !bytes.Equal(got, want) {
				t.Fatalf("draw %d: %dx%dx%d in %dx%dx%d blocks, %dx%d camera, %+v: block %d differs from the reference",
					draws, nx, ny, nz, bx, by, bz, cam.Width, cam.Height, tf, i)
			}
			blocks++
		}
		whole, _ := data.NewDecomposition(nx, ny, nz, 1, 1, 1)
		if got, want := RenderFull(cam, tf, f).Serialize(), refRenderBlock(cam, tf, whole, 0, f).Serialize(); !bytes.Equal(got, want) {
			t.Fatalf("draw %d: RenderFull differs from the reference over one block", draws)
		}
	}
	t.Logf("%d draws, %d blocks", draws, blocks)
}
