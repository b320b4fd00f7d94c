// Package render implements the paper's second use case (§V-B): a
// distributed rendering pipeline with a volume-rendering stage (the paper
// uses VTK's SmartVolumeMapper; here a software ray-caster over the same
// block decomposition) and an image-compositing stage implemented as either
// a reduction dataflow or a binary-swap dataflow, compared against an
// IceT-style direct compositor.
package render

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/babelflow/babelflow-go/internal/data"
)

// Image is an RGBA + depth image. Compositing uses the alpha channel
// (premultiplied colors, front-to-back OVER) and the depth of the nearest
// contribution for ordering.
type Image struct {
	Width, Height int
	// X0, Y0 anchor the image within the full frame; tiles produced by
	// binary swap cover sub-rectangles.
	X0, Y0 int
	// Pixels holds r, g, b, a quadruples, premultiplied.
	Pixels []float32
	// Depth holds the depth of the nearest sample per pixel; +Inf where
	// empty.
	Depth []float32
}

// NewImage allocates a transparent image anchored at (x0, y0).
func NewImage(w, h, x0, y0 int) *Image {
	img := &Image{Width: w, Height: h, X0: x0, Y0: y0,
		Pixels: make([]float32, 4*w*h), Depth: make([]float32, w*h)}
	for i := range img.Depth {
		img.Depth[i] = float32(math.Inf(1))
	}
	return img
}

// At returns the premultiplied RGBA at local pixel (x, y).
func (im *Image) At(x, y int) (r, g, b, a float32) {
	i := 4 * (y*im.Width + x)
	return im.Pixels[i], im.Pixels[i+1], im.Pixels[i+2], im.Pixels[i+3]
}

// SetPixel stores a premultiplied RGBA sample with its depth.
func (im *Image) SetPixel(x, y int, r, g, b, a, depth float32) {
	i := 4 * (y*im.Width + x)
	im.Pixels[i], im.Pixels[i+1], im.Pixels[i+2], im.Pixels[i+3] = r, g, b, a
	im.Depth[y*im.Width+x] = depth
}

// Over composites src over dst pixel-by-pixel using depth ordering: the
// image whose fragment is nearer contributes first. Both images must have
// identical geometry. The result is written into dst.
func (dst *Image) Over(src *Image) error {
	if dst.Width != src.Width || dst.Height != src.Height || dst.X0 != src.X0 || dst.Y0 != src.Y0 {
		return fmt.Errorf("render: compositing geometry mismatch: %dx%d@%d,%d vs %dx%d@%d,%d",
			dst.Width, dst.Height, dst.X0, dst.Y0, src.Width, src.Height, src.X0, src.Y0)
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
		// front OVER back with premultiplied alpha.
		dst.Pixels[i] = fr + (1-fa)*br
		dst.Pixels[i+1] = fg + (1-fa)*bg
		dst.Pixels[i+2] = fb + (1-fa)*bb
		dst.Pixels[i+3] = fa + (1-fa)*ba
	}
	return nil
}

// SplitHorizontal cuts the image into two halves along y (top rows first),
// used by the binary-swap exchange. Odd heights give the extra row to the
// first half.
func (im *Image) SplitHorizontal() (*Image, *Image) {
	h1 := (im.Height + 1) / 2
	h2 := im.Height - h1
	a := NewImage(im.Width, h1, im.X0, im.Y0)
	b := NewImage(im.Width, h2, im.X0, im.Y0+h1)
	copy(a.Pixels, im.Pixels[:4*im.Width*h1])
	copy(a.Depth, im.Depth[:im.Width*h1])
	copy(b.Pixels, im.Pixels[4*im.Width*h1:])
	copy(b.Depth, im.Depth[im.Width*h1:])
	return a, b
}

// Serialize encodes the image: width, height, x0, y0 as int32, then pixels
// and depth as float32 bits.
func (im *Image) Serialize() []byte {
	le := binary.LittleEndian
	n := im.Width * im.Height
	buf := make([]byte, 16+4*(4*n+n))
	le.PutUint32(buf[0:], uint32(im.Width))
	le.PutUint32(buf[4:], uint32(im.Height))
	le.PutUint32(buf[8:], uint32(im.X0))
	le.PutUint32(buf[12:], uint32(im.Y0))
	data.EncodeFloat32s(buf[16:16+16*n], im.Pixels)
	data.EncodeFloat32s(buf[16+16*n:], im.Depth)
	return buf
}

// DeserializeImage decodes an image encoded by Serialize.
func DeserializeImage(b []byte) (*Image, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("render: image buffer too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	w, h := int(int32(le.Uint32(b[0:]))), int(int32(le.Uint32(b[4:])))
	x0, y0 := int(int32(le.Uint32(b[8:]))), int(int32(le.Uint32(b[12:])))
	// A pixel takes 20 bytes; bounding w by the pixels the buffer holds
	// before multiplying keeps w*h from wrapping.
	if w < 0 || h < 0 || (h > 0 && w > (len(b)-16)/20/h) || len(b) != 16+20*w*h {
		return nil, fmt.Errorf("render: image buffer size %d does not match %dx%d", len(b), w, h)
	}
	n := w * h
	im := &Image{Width: w, Height: h, X0: x0, Y0: y0,
		Pixels: make([]float32, 4*n), Depth: make([]float32, n)}
	data.DecodeFloat32s(im.Pixels, b[16:16+16*n])
	data.DecodeFloat32s(im.Depth, b[16+16*n:])
	return im, nil
}

// Equal reports pixel- and geometry-identical images.
func (im *Image) Equal(o *Image) bool {
	if im.Width != o.Width || im.Height != o.Height || im.X0 != o.X0 || im.Y0 != o.Y0 {
		return false
	}
	for i := range im.Pixels {
		if im.Pixels[i] != o.Pixels[i] {
			return false
		}
	}
	for i := range im.Depth {
		a, b := im.Depth[i], o.Depth[i]
		if a != b && !(math.IsInf(float64(a), 1) && math.IsInf(float64(b), 1)) {
			return false
		}
	}
	return true
}

// WritePPM renders the image to a binary PPM (P6), compositing against a
// black background; the standard quick-look output (Fig. 10d analogue).
func (im *Image) WritePPM() []byte {
	header := fmt.Sprintf("P6\n%d %d\n255\n", im.Width, im.Height)
	out := make([]byte, 0, len(header)+3*im.Width*im.Height)
	out = append(out, header...)
	clamp := func(v float32) byte {
		if v <= 0 {
			return 0
		}
		if v >= 1 {
			return 255
		}
		return byte(v * 255)
	}
	for p := 0; p < im.Width*im.Height; p++ {
		out = append(out, clamp(im.Pixels[4*p]), clamp(im.Pixels[4*p+1]), clamp(im.Pixels[4*p+2]))
	}
	return out
}
