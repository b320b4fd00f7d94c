package render

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestImageSetAt(t *testing.T) {
	im := NewImage(4, 3, 0, 0)
	im.SetPixel(2, 1, 0.5, 0.25, 0.125, 1, 3)
	r, g, b, a := im.At(2, 1)
	if r != 0.5 || g != 0.25 || b != 0.125 || a != 1 {
		t.Errorf("At = %f %f %f %f", r, g, b, a)
	}
	if im.Depth[1*4+2] != 3 {
		t.Error("depth not stored")
	}
	if !math.IsInf(float64(im.Depth[0]), 1) {
		t.Error("empty pixels should have +Inf depth")
	}
}

func TestOverDepthOrdering(t *testing.T) {
	// A red fragment at depth 1 over a blue at depth 5, in both call
	// orders, must give the same result: red in front.
	front := NewImage(1, 1, 0, 0)
	front.SetPixel(0, 0, 0.6, 0, 0, 0.6, 1) // premultiplied red, a=0.6
	back := NewImage(1, 1, 0, 0)
	back.SetPixel(0, 0, 0, 0, 0.8, 0.8, 5) // premultiplied blue, a=0.8

	a := NewImage(1, 1, 0, 0)
	a.SetPixel(0, 0, 0.6, 0, 0, 0.6, 1)
	a = a.Over(back)
	b := NewImage(1, 1, 0, 0)
	b.SetPixel(0, 0, 0, 0, 0.8, 0.8, 5)
	b = b.Over(front)
	if !a.Equal(b) {
		t.Errorf("Over is not order-independent under depth sorting: %v vs %v", a.Pixels, b.Pixels)
	}
	r, _, bl, alpha := a.At(0, 0)
	wantR := float32(0.6)
	wantB := float32((1 - 0.6) * 0.8)
	wantA := float32(0.6 + 0.4*0.8)
	if r != wantR || bl != wantB || alpha != wantA {
		t.Errorf("composite = %f %f %f, want %f %f %f", r, bl, alpha, wantR, wantB, wantA)
	}
	if a.Depth[0] != 1 {
		t.Errorf("composite depth = %f", a.Depth[0])
	}
}

// TestOverUnion: the composite covers the union of the two rectangles. A
// dst that covers it is composited in place; otherwise a new image is
// made and both operands are left as they were.
func TestOverUnion(t *testing.T) {
	a := NewImage(2, 1, 0, 0)
	a.SetPixel(0, 0, 0.5, 0, 0, 0.5, 1)
	b := NewImage(1, 2, 3, 1)
	b.SetPixel(0, 1, 0, 0.5, 0, 0.5, 2)
	aBefore := a.window(a.bounds())
	u := a.Over(b)
	if u == a || u.bounds() != (rect{0, 0, 4, 3}) {
		t.Fatalf("union %+v (in place %v), want 4x3 at 0,0 in a new image", u.bounds(), u == a)
	}
	if !a.Equal(aBefore) {
		t.Error("Over changed a dst that does not cover the union")
	}
	if r, _, _, _ := u.At(0, 0); r != 0.5 {
		t.Errorf("dst pixel = %v", r)
	}
	if _, g, _, _ := u.At(3, 2); g != 0.5 || u.Depth[2*4+3] != 2 {
		t.Errorf("src pixel = %v at depth %v", g, u.Depth[2*4+3])
	}
	if !u.transparent(1*4 + 1) {
		t.Error("a pixel neither operand covers is not transparent")
	}
	if got := u.Over(b); got != u {
		t.Error("a dst covering the union was not composited in place")
	}
	if got := u.Over(NewImage(0, 0, 9, 9)); got != u || got.bounds() != (rect{0, 0, 4, 3}) {
		t.Error("an empty src changed the union")
	}
}

// TestSwapRegion: binary swap halves the frame region along y each round,
// the extra row of an odd height to the top half, and a participant keeps
// the top half of round r when its bit r is 0.
func TestSwapRegion(t *testing.T) {
	cam := Camera{Width: 2, Height: 5}
	for _, c := range []struct {
		rounds, index int
		want          rect
	}{
		{0, 3, rect{0, 0, 2, 5}},
		{1, 0, rect{0, 0, 2, 3}},
		{1, 1, rect{0, 3, 2, 2}},
		{2, 1, rect{0, 3, 2, 1}},
		{2, 3, rect{0, 4, 2, 1}},
		{3, 7, rect{0, 5, 2, 0}},
	} {
		if got := cam.swapRegion(c.rounds, c.index); got != c.want {
			t.Errorf("swapRegion(%d, %d) = %+v, want %+v", c.rounds, c.index, got, c.want)
		}
	}
	// A crop holds the part of the image inside the region; a region the
	// image does not reach gives a 0x0 image inside the frame.
	im := NewImage(2, 2, 0, 2)
	im.SetPixel(1, 1, 1, 0, 0, 1, 0)
	if got := im.crop(cam.swapRegion(1, 1)); got.bounds() != (rect{0, 3, 2, 1}) || got.Pixels[4] != 1 {
		t.Errorf("bottom crop %+v, pixels %v", got.bounds(), got.Pixels)
	}
	if got := im.crop(cam.swapRegion(2, 3)); !got.bounds().empty() || cam.holds(got) != nil {
		t.Errorf("crop outside the image %+v", got.bounds())
	}
}

func TestImageSerializeRoundTrip(t *testing.T) {
	im := NewImage(3, 2, 1, 5)
	im.SetPixel(2, 1, 0.1, 0.2, 0.3, 0.4, 9)
	nan := float32(math.NaN())
	im.SetPixel(0, 0, nan, 0, float32(math.Copysign(0, -1)), nan, float32(math.Inf(-1)))
	got, err := DeserializeImage(im.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(got) {
		t.Error("round trip changed the image")
	}
	got.Pixels[2] = 0 // +0 where im holds -0
	if im.Equal(got) {
		t.Error("Equal ignores the sign of a zero")
	}
	if _, err := DeserializeImage([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer should fail")
	}
	if _, err := DeserializeImage(im.Serialize()[:20]); err == nil {
		t.Error("truncated buffer should fail")
	}
}

// TestDeserializeImageWrappedHeader: the header of this 20-byte buffer
// names 2147418113×429509837 pixels of 20 bytes each; with the 16-byte
// header that length wraps to exactly 20 in 64 bits.
func TestDeserializeImageWrappedHeader(t *testing.T) {
	b := make([]byte, 20)
	binary.LittleEndian.PutUint32(b[0:], 2147418113)
	binary.LittleEndian.PutUint32(b[4:], 429509837)
	if im, err := DeserializeImage(b); err == nil {
		t.Errorf("a %dx%d image from %d bytes should fail", im.Width, im.Height, len(b))
	}
}

// FuzzImageDecode: the decoder never panics, and an input it accepts
// re-encodes to the same bytes.
func FuzzImageDecode(f *testing.F) {
	golden, _ := hex.DecodeString("020000000100000003000000ffffffff0000803e0000003f0000403f0000803f00000000000000000000000000000000000020400000807f")
	f.Add(golden)
	f.Add(NewImage(0, 0, 0, 0).Serialize())
	one := NewImage(3, 1, -2, 7)
	one.SetPixel(1, 0, 0.1, 0.2, 0.3, 0.4, 5)
	f.Add(one.Serialize())
	f.Add([]byte{0x01, 0x00, 0xff, 0x7f, 0xcd, 0xcc, 0x99, 0x19, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		im, err := DeserializeImage(b)
		if err != nil {
			return
		}
		if got := im.Serialize(); !bytes.Equal(got, b) {
			t.Fatalf("decoded %dx%d@%d,%d re-encodes to %x, want %x", im.Width, im.Height, im.X0, im.Y0, got, b)
		}
	})
}

// FuzzComposite: two images decoded inside a small frame composite, once
// made dense, to the bytes refOver gives for their dense frames. Over may
// composite into its dst, so the dense operands are made first.
//
// Every NaN of the inputs is given the payload the host's arithmetic gives
// 0·Inf, the one any NaN the compositing creates carries: where NaNs of two
// payloads meet, which one survives follows the operand order the compiler
// emits for each of the two compositors, which neither controls.
func FuzzComposite(f *testing.F) {
	cam := Camera{Width: 6, Height: 5}
	inf, zero := float32(math.Inf(1)), float32(0)
	a := NewImage(3, 2, 1, 1)
	a.SetPixel(0, 0, 0.25, 0.5, 0, 0.75, 2)
	a.SetPixel(2, 1, zero*inf, 0, 0, zero*inf, inf)
	b := NewImage(2, 3, 3, 2)
	b.SetPixel(0, 0, float32(math.Copysign(0, -1)), 0, 0, 0, 1)
	b.SetPixel(1, 2, 0.5, 0.5, 0.5, inf, 0)
	f.Add(a.Serialize(), b.Serialize())
	f.Add(b.Serialize(), a.Serialize())
	f.Add(a.Serialize(), NewImage(0, 0, 6, 0).Serialize())
	f.Add(NewImage(6, 5, 0, 0).Serialize(), a.Serialize())
	payload := NewImage(1, 1, 4, 3)
	payload.SetPixel(0, 0, math.Float32frombits(0x7fc0abcd), 0, math.Float32frombits(0xff800001), 0.5, 1)
	f.Add(payload.Serialize(), b.Serialize())
	nan := zero * inf
	canonical := func(vs []float32) {
		for i, v := range vs {
			if v != v {
				vs[i] = nan
			}
		}
	}
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a, err := DeserializeImage(ab)
		if err != nil || cam.holds(a) != nil {
			return
		}
		b, err := DeserializeImage(bb)
		if err != nil || cam.holds(b) != nil {
			return
		}
		for _, vs := range [][]float32{a.Pixels, a.Depth, b.Pixels, b.Depth} {
			canonical(vs)
		}
		want := a.window(cam.frame())
		refOver(want, b.window(cam.frame()))
		got := a.Over(b).window(cam.frame())
		if !bytes.Equal(got.Serialize(), want.Serialize()) {
			t.Fatalf("%+v over %+v: sparse composite differs from the dense one", a.bounds(), b.bounds())
		}
	})
}

// TestImageSerializeGolden pins the image encoding byte for byte, including
// a negative anchor and an empty (+Inf depth) pixel.
func TestImageSerializeGolden(t *testing.T) {
	im := &Image{Width: 2, Height: 1, X0: 3, Y0: -1,
		Pixels: []float32{0.25, 0.5, 0.75, 1, 0, 0, 0, 0},
		Depth:  []float32{2.5, float32(math.Inf(1))}}
	const want = "020000000100000003000000ffffffff0000803e0000003f0000403f0000803f00000000000000000000000000000000000020400000807f"
	if got := hex.EncodeToString(im.Serialize()); got != want {
		t.Fatalf("Serialize = %s, want %s", got, want)
	}
	b, _ := hex.DecodeString(want)
	got, err := DeserializeImage(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(im, got) {
		t.Fatalf("golden bytes decode to %+v, want %+v", got, im)
	}
}

// benchImage is a 256² frame, the size render-tcp composites, with every
// pixel set.
func benchImage() *Image {
	im := NewImage(256, 256, 0, 0)
	for i := range im.Pixels {
		im.Pixels[i] = float32(i%251) / 251
	}
	for i := range im.Depth {
		im.Depth[i] = float32(i)
	}
	return im
}

// Benchmark results land here so the compiler cannot drop the calls.
var (
	wireSink  []byte
	imageSink *Image
)

func BenchmarkImageSerialize(b *testing.B) {
	im := benchImage()
	b.SetBytes(int64(len(im.Serialize())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wireSink = im.Serialize()
	}
}

func BenchmarkImageDeserialize(b *testing.B) {
	buf := benchImage().Serialize()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		if imageSink, err = DeserializeImage(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWritePPM(t *testing.T) {
	im := NewImage(2, 2, 0, 0)
	im.SetPixel(0, 0, 1, 0, 0, 1, 0)
	ppm := im.WritePPM()
	if !strings.HasPrefix(string(ppm), "P6\n2 2\n255\n") {
		t.Errorf("header = %q", ppm[:11])
	}
	body := ppm[len("P6\n2 2\n255\n"):]
	if len(body) != 12 {
		t.Fatalf("body length = %d", len(body))
	}
	if body[0] != 255 || body[1] != 0 {
		t.Errorf("pixel 0 = %v", body[:3])
	}
}
