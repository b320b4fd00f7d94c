// Package render implements the paper's second use case (§V-B): a
// distributed rendering pipeline with a volume-rendering stage (the paper
// uses VTK's SmartVolumeMapper; here a software ray-caster over the same
// block decomposition) and an image-compositing stage implemented as either
// a reduction dataflow or a binary-swap dataflow, compared against an
// IceT-style direct compositor.
//
// Images are sparse: a rendered block is trimmed to the rectangle of frame
// pixels it touched, a composite covers the union of its operands'
// rectangles, and a binary-swap half is clipped to its frame region. Only
// the sinks — the reduction root's frame and each final binary-swap tile —
// are dense, so they are byte-identical to compositing dense frames.
package render

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/babelflow/babelflow-go/internal/data"
)

// Image is an RGBA + depth image covering the rectangle Width×Height at
// (X0, Y0) of the camera frame. Every frame pixel outside that rectangle is
// transparent: r, g, b and a +0, depth +Inf. Compositing uses the alpha
// channel (premultiplied colors, front-to-back OVER) and the depth of the
// nearest contribution for ordering.
type Image struct {
	Width, Height int
	// X0, Y0 anchor the image within the full frame.
	X0, Y0 int
	// Pixels holds r, g, b, a quadruples, premultiplied.
	Pixels []float32
	// Depth holds the depth of the nearest sample per pixel; +Inf where
	// empty.
	Depth []float32
}

// rect is a rectangle of the camera frame: w×h pixels at (x0, y0).
type rect struct{ x0, y0, w, h int }

func (r rect) empty() bool { return r.w <= 0 || r.h <= 0 }

// union is the bounding rectangle of r and o; an empty operand adds no
// pixel.
func (r rect) union(o rect) rect {
	if o.empty() {
		return r
	}
	if r.empty() {
		return o
	}
	x0, y0 := min(r.x0, o.x0), min(r.y0, o.y0)
	return rect{x0, y0, max(r.x0+r.w, o.x0+o.w) - x0, max(r.y0+r.h, o.y0+o.h) - y0}
}

// intersect is the part of r inside o; when they do not meet it is empty,
// anchored where the overlap would start.
func (r rect) intersect(o rect) rect {
	x0, y0 := max(r.x0, o.x0), max(r.y0, o.y0)
	return rect{x0, y0, max(0, min(r.x0+r.w, o.x0+o.w)-x0), max(0, min(r.y0+r.h, o.y0+o.h)-y0)}
}

// bounds is the frame rectangle the image covers.
func (im *Image) bounds() rect { return rect{im.X0, im.Y0, im.Width, im.Height} }

// infBits is the bit pattern of float32 +Inf, the depth of an empty pixel.
const infBits = 0x7f800000

// NewImage allocates a transparent image anchored at (x0, y0).
func NewImage(w, h, x0, y0 int) *Image {
	img := &Image{Width: w, Height: h, X0: x0, Y0: y0,
		Pixels: make([]float32, 4*w*h), Depth: make([]float32, w*h)}
	for i := range img.Depth {
		img.Depth[i] = math.Float32frombits(infBits)
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

// transparent reports whether local pixel p is bitwise the transparent
// pixel (+0, +0, +0, +0, +Inf).
func (im *Image) transparent(p int) bool {
	c := im.Pixels[4*p : 4*p+4]
	return math.Float32bits(c[0])|math.Float32bits(c[1])|math.Float32bits(c[2])|math.Float32bits(c[3]) == 0 &&
		math.Float32bits(im.Depth[p]) == infBits
}

// trim shrinks the image in place to the bounding rectangle of its pixels
// that are not transparent, moving the kept rows to the front of Pixels and
// Depth; an image with no such pixel becomes 0×0.
func (im *Image) trim() {
	x0, y0, x1, y1 := im.Width, im.Height, 0, 0
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			if !im.transparent(y*im.Width + x) {
				x0, x1 = min(x0, x), max(x1, x+1)
				y0, y1 = min(y0, y), y+1
			}
		}
	}
	w, h := max(0, x1-x0), max(0, y1-y0)
	for j := 0; j < h; j++ {
		s := (y0+j)*im.Width + x0
		copy(im.Pixels[4*j*w:4*(j+1)*w], im.Pixels[4*s:4*(s+w)])
		copy(im.Depth[j*w:(j+1)*w], im.Depth[s:s+w])
	}
	if h > 0 {
		im.X0, im.Y0 = im.X0+x0, im.Y0+y0
	}
	im.Width, im.Height = w, h
	im.Pixels, im.Depth = im.Pixels[:4*w*h], im.Depth[:w*h]
}

// paste copies the pixels of src that fall inside dst into dst.
func (dst *Image) paste(src *Image) {
	o := src.bounds().intersect(dst.bounds())
	for y := o.y0; y < o.y0+o.h; y++ {
		s := (y-src.Y0)*src.Width + o.x0 - src.X0
		d := (y-dst.Y0)*dst.Width + o.x0 - dst.X0
		copy(dst.Pixels[4*d:4*(d+o.w)], src.Pixels[4*s:4*(s+o.w)])
		copy(dst.Depth[d:d+o.w], src.Depth[s:s+o.w])
	}
}

// window returns a new image covering exactly r: the image's pixels where
// they overlap r, transparent elsewhere. Windowing to the whole frame is
// how a sink becomes dense.
func (im *Image) window(r rect) *Image {
	out := NewImage(r.w, r.h, r.x0, r.y0)
	out.paste(im)
	return out
}

// crop returns a new image holding the part of im inside r.
func (im *Image) crop(r rect) *Image { return im.window(im.bounds().intersect(r)) }

// Over composites src over dst pixel by pixel using depth ordering: the
// image whose fragment is nearer contributes first. The result covers the
// union of the two rectangles; it is dst itself when dst already covers
// that union, and a new image otherwise. Every pixel of the union goes
// through the same front-OVER-back expression, with the transparent pixel
// standing in for an operand outside its rectangle, so the result equals
// the composite of the two frames made dense, bit for bit — NaN and signed
// zeros included.
func (dst *Image) Over(src *Image) *Image {
	u := dst.bounds().union(src.bounds())
	out := dst
	if dst.bounds() != u {
		out = NewImage(u.w, u.h, u.x0, u.y0)
	}
	inf := math.Float32frombits(infBits)
	for y := 0; y < u.h; y++ {
		orow, odep := out.Pixels[4*y*u.w:4*(y+1)*u.w], out.Depth[y*u.w:(y+1)*u.w]
		// Each operand's part of row y, starting at union column lo.
		dlo, drow, ddep := rowSpan(dst, u, y)
		slo, srow, sdep := rowSpan(src, u, y)
		for x := range odep {
			var fr, fg, fb, fa, br, bg, bb, ba float32
			df, db := inf, inf
			if i := x - dlo; uint(i) < uint(len(ddep)) {
				c := drow[4*i : 4*i+4 : 4*i+4]
				fr, fg, fb, fa, df = c[0], c[1], c[2], c[3], ddep[i]
			}
			if i := x - slo; uint(i) < uint(len(sdep)) {
				c := srow[4*i : 4*i+4 : 4*i+4]
				br, bg, bb, ba, db = c[0], c[1], c[2], c[3], sdep[i]
			}
			if db < df {
				fr, fg, fb, fa, br, bg, bb, ba = br, bg, bb, ba, fr, fg, fb, fa
				df = db
			}
			// front OVER back with premultiplied alpha.
			c := orow[4*x : 4*x+4 : 4*x+4]
			c[0] = fr + (1-fa)*br
			c[1] = fg + (1-fa)*bg
			c[2] = fb + (1-fa)*bb
			c[3] = fa + (1-fa)*ba
			odep[x] = df
		}
	}
	return out
}

// rowSpan returns im's pixels and depths on row y of rectangle u, which
// holds im, and the column of u they start at; the slices are empty when
// im does not reach the row.
func rowSpan(im *Image, u rect, y int) (lo int, pixels, depth []float32) {
	ly := u.y0 + y - im.Y0
	if ly < 0 || ly >= im.Height {
		return 0, nil, nil
	}
	p := ly * im.Width
	return im.X0 - u.x0, im.Pixels[4*p : 4*(p+im.Width)], im.Depth[p : p+im.Width]
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

// Equal reports geometry-identical images whose pixels and depths have the
// same bits, so an image holding a NaN equals its own copy.
func (im *Image) Equal(o *Image) bool {
	return im.bounds() == o.bounds() && sameBits(im.Pixels, o.Pixels) && sameBits(im.Depth, o.Depth)
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
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
