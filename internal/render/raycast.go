package render

import (
	"math"

	"github.com/babelflow/babelflow-go/internal/data"
)

// TransferFunction maps scalar values to premultiplied color and opacity.
// The mapping is a deterministic piecewise-linear ramp, so every runtime
// produces bit-identical samples.
type TransferFunction struct {
	// Lo, Hi bound the visible scalar range; values below Lo are fully
	// transparent.
	Lo, Hi float32
	// Opacity scales per-sample alpha (the emission/absorption step size).
	Opacity float32
}

// Sample returns the premultiplied RGBA contribution of one scalar sample.
func (tf TransferFunction) Sample(v float32) (r, g, b, a float32) {
	if v < tf.Lo || tf.Hi <= tf.Lo {
		return 0, 0, 0, 0
	}
	t := (v - tf.Lo) / (tf.Hi - tf.Lo)
	if t > 1 {
		t = 1
	}
	a = t * tf.Opacity
	if a > 1 {
		a = 1
	}
	// Blue-to-red ramp, premultiplied.
	r = t * a
	g = 0.2 * a
	b = (1 - t) * a
	return r, g, b, a
}

// Camera is the orthographic view of the pipeline: rays travel along +Z and
// pixel (px, py) maps to the voxel column (px*NX/W, py*NY/H). The paper's
// rendering stage is embarrassingly parallel for any fixed view; a single
// axis-aligned view keeps distributed and serial results comparable.
type Camera struct {
	Width, Height int
}

// footprint returns the run of pixels along one image axis of w pixels
// whose voxel column p*n/w falls in [lo, hi): its first pixel p0 and, for
// each pixel of the run, its column relative to lo. The mapping is
// monotone in p, so those pixels are contiguous.
func footprint(w, n, lo, hi int) (p0 int, cols []int) {
	for p0 < w && p0*n/w < lo {
		p0++
	}
	p1 := p0
	for p1 < w && p1*n/w < hi {
		p1++
	}
	if p1 == p0 {
		return p0, nil
	}
	cols = make([]int, p1-p0)
	for i := range cols {
		cols[i] = (p0+i)*n/w - lo
	}
	return p0, cols
}

// RenderBlock volume-renders the core region of one decomposition block
// into a full-frame image: pixels whose voxel column falls outside the
// block's core stay transparent. The block field includes the ghost layer;
// samples are taken at the core's integer z planes, so compositing all
// blocks reproduces the full-domain integral exactly.
//
// The rays of the block's pixel rectangle advance together, one z plane at
// a time, reading each plane's rows in memory order and accumulating
// front-to-back in the image itself. A sample below tf.Lo is skipped: its
// premultiplied contribution is zero, and adding zero leaves an
// accumulator as it was (a NaN stays a NaN). Every other sample goes
// through tf.Sample and the same OVER step, in the same order, as a single
// ray would take it.
func RenderBlock(cam Camera, tf TransferFunction, d *data.Decomposition, blockIndex int, block *data.Field) *Image {
	img := NewImage(cam.Width, cam.Height, 0, 0)
	if tf.Hi <= tf.Lo {
		return img
	}
	b := d.Block(blockIndex)
	sx, sy, sz := d.NX/d.BXN, d.NY/d.BYN, d.NZ/d.BZN
	// Core region: the ghost-free partition cell [b.X0, b.X0+sx) x ... ;
	// the z sweep covers exactly the core planes, so compositing all
	// blocks integrates every domain plane once.
	px0, xs := footprint(cam.Width, d.NX, b.X0, b.X0+sx)
	py0, ys := footprint(cam.Height, d.NY, b.Y0, b.Y0+sy)
	if len(xs) == 0 || len(ys) == 0 {
		return img
	}
	plane := block.NX * block.NY
	for z := 0; z < sz; z++ {
		vals := block.Values[z*plane : (z+1)*plane]
		depth := float32(b.Z0 + z)
		for j, ly := range ys {
			row := vals[ly*block.NX : (ly+1)*block.NX]
			p := (py0+j)*cam.Width + px0
			pixels := img.Pixels[4*p : 4*(p+len(xs))]
			depths := img.Depth[p : p+len(xs)]
			for i, lx := range xs {
				v := row[lx]
				if v < tf.Lo {
					continue
				}
				sr, sg, sb, sa := tf.Sample(v)
				if sa > 0 && math.IsInf(float64(depths[i]), 1) {
					depths[i] = depth
				}
				// Front-to-back OVER accumulation.
				c := pixels[4*i : 4*i+4]
				ca := c[3]
				c[0] += (1 - ca) * sr
				c[1] += (1 - ca) * sg
				c[2] += (1 - ca) * sb
				c[3] += (1 - ca) * sa
			}
		}
	}
	return img
}

// RenderFull volume-renders the whole domain serially: the reference result
// the distributed pipeline must reproduce. It is RenderBlock over the
// domain as a single block, which has no ghost layer.
func RenderFull(cam Camera, tf TransferFunction, f *data.Field) *Image {
	whole := &data.Decomposition{NX: f.NX, NY: f.NY, NZ: f.NZ, BXN: 1, BYN: 1, BZN: 1}
	return RenderBlock(cam, tf, whole, 0, f)
}
