package render

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"github.com/babelflow/babelflow-go/internal/data"
)

// refOver is the dense compositing step that the sparse Over replaced,
// kept as its oracle: both images cover the same rectangle, and src is
// composited over dst in place, pixel by pixel, front OVER back in depth
// order.
func refOver(dst, src *Image) {
	if dst.bounds() != src.bounds() {
		panic("refOver: geometry mismatch")
	}
	for p := 0; p < dst.Width*dst.Height; p++ {
		df, db := dst.Depth[p], src.Depth[p]
		i := 4 * p
		fr, fg, fb, fa := dst.Pixels[i], dst.Pixels[i+1], dst.Pixels[i+2], dst.Pixels[i+3]
		br, bg, bb, ba := src.Pixels[i], src.Pixels[i+1], src.Pixels[i+2], src.Pixels[i+3]
		if db < df {
			fr, fg, fb, fa, br, bg, bb, ba = br, bg, bb, ba, fr, fg, fb, fa
			dst.Depth[p] = db
		}
		dst.Pixels[i] = fr + (1-fa)*br
		dst.Pixels[i+1] = fg + (1-fa)*bg
		dst.Pixels[i+2] = fb + (1-fa)*bb
		dst.Pixels[i+3] = fa + (1-fa)*ba
	}
}

// refSplit cuts a dense image into its top and bottom halves along y, the
// extra row of an odd height to the top: the split the dense binary swap
// made.
func refSplit(im *Image) (top, bottom *Image) {
	h := (im.Height + 1) / 2
	top, bottom = NewImage(im.Width, h, im.X0, im.Y0), NewImage(im.Width, im.Height-h, im.X0, im.Y0+h)
	copy(top.Pixels, im.Pixels)
	copy(top.Depth, im.Depth)
	copy(bottom.Pixels, im.Pixels[4*im.Width*h:])
	copy(bottom.Depth, im.Depth[im.Width*h:])
	return top, bottom
}

// refCompositeTree and refCompositeSwap are the dense compositing
// schedules CompositeTree and CompositeSwap replaced, over dense frames;
// they overwrite their inputs.
func refCompositeTree(frames []*Image) *Image {
	for len(frames) > 1 {
		var next []*Image
		for j := 0; j < len(frames); j += 2 {
			if j+1 < len(frames) {
				refOver(frames[j], frames[j+1])
			}
			next = append(next, frames[j])
		}
		frames = next
	}
	return frames[0]
}

func refCompositeSwap(frames []*Image) []*Image {
	n := len(frames)
	cur := append([]*Image(nil), frames...)
	for bit := 1; bit < n; bit <<= 1 {
		halves := make([][2]*Image, n) // keep, send
		for i := range cur {
			top, bottom := refSplit(cur[i])
			if i&bit == 0 {
				halves[i] = [2]*Image{top, bottom}
			} else {
				halves[i] = [2]*Image{bottom, top}
			}
		}
		for i := range cur {
			refOver(halves[i][0], halves[i^bit][1])
			cur[i] = halves[i][0]
		}
	}
	sort.SliceStable(cur, func(a, b int) bool { return cur[a].Y0 < cur[b].Y0 })
	return cur
}

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
// kernels and compares the encoded images, made dense, byte for byte, NaN
// payloads and signed zeros included; each block is rendered both from its
// extracted field and in place from the volume, and the two sparse images
// must be the same bytes. Each sparse image must be trimmed
// tight (a pixel that is not transparent on every border row and column).
// Each draw's blocks are then composited through both paths — the sparse
// CompositeTree and CompositeSwap against the dense refCompositeTree and
// refCompositeSwap over the reference frames — byte for byte. The draws
// vary the domain and its block grid
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
		var sparse, dense []*Image
		for i := 0; i < d.Blocks(); i++ {
			blk, err := d.Extract(f, i)
			if err != nil {
				t.Fatal(err)
			}
			ref := refRenderBlock(cam, tf, d, i, blk)
			img := RenderBlock(cam, tf, d, i, blk)
			if !bytes.Equal(img.window(cam.frame()).Serialize(), ref.Serialize()) {
				t.Fatalf("draw %d: %dx%dx%d in %dx%dx%d blocks, %dx%d camera, %+v: block %d differs from the reference",
					draws, nx, ny, nz, bx, by, bz, cam.Width, cam.Height, tf, i)
			}
			view, err := d.View(f, i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderView(cam, tf, view).Serialize(), img.Serialize()) {
				t.Fatalf("draw %d: block %d rendered in place differs from the extracted block", draws, i)
			}
			if !tight(img) {
				t.Fatalf("draw %d: block %d's %+v is not the tight rectangle of its pixels", draws, i, img.bounds())
			}
			sparse, dense = append(sparse, img), append(dense, ref)
			blocks++
		}
		clone := func(ims []*Image) []*Image {
			out := make([]*Image, len(ims))
			for i, im := range ims {
				out[i] = im.window(im.bounds())
			}
			return out
		}
		swapSparse, swapDense := clone(sparse), clone(dense)
		tree, err := CompositeTree(cam, sparse)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tree.Serialize(), refCompositeTree(dense).Serialize()) {
			t.Fatalf("draw %d: CompositeTree differs from the dense reference", draws)
		}
		if n := len(swapSparse); n&(n-1) == 0 {
			tiles, err := CompositeSwap(cam, swapSparse)
			if err != nil {
				t.Fatal(err)
			}
			for j, want := range refCompositeSwap(swapDense) {
				if !bytes.Equal(tiles[j].Serialize(), want.Serialize()) {
					t.Fatalf("draw %d: CompositeSwap tile %d differs from the dense reference", draws, j)
				}
			}
		}
		whole, _ := data.NewDecomposition(nx, ny, nz, 1, 1, 1)
		if got, want := RenderFull(cam, tf, f).Serialize(), refRenderBlock(cam, tf, whole, 0, f).Serialize(); !bytes.Equal(got, want) {
			t.Fatalf("draw %d: RenderFull differs from the reference over one block", draws)
		}
	}
	t.Logf("%d draws, %d blocks", draws, blocks)
}

// tight reports whether every border row and border column of the image
// holds a pixel that is not transparent.
func tight(im *Image) bool {
	w, h := im.Width, im.Height
	if w == 0 || h == 0 {
		return w == h
	}
	line := func(p0, step, n int) bool {
		for k := 0; k < n; k++ {
			if !im.transparent(p0 + k*step) {
				return true
			}
		}
		return false
	}
	return line(0, 1, w) && line((h-1)*w, 1, w) && line(0, w, h) && line(w-1, w, h)
}
