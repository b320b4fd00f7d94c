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
	if err := a.Over(back); err != nil {
		t.Fatal(err)
	}
	b := NewImage(1, 1, 0, 0)
	b.SetPixel(0, 0, 0, 0, 0.8, 0.8, 5)
	if err := b.Over(front); err != nil {
		t.Fatal(err)
	}
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

func TestOverGeometryMismatch(t *testing.T) {
	a := NewImage(2, 2, 0, 0)
	b := NewImage(2, 2, 0, 2)
	if err := a.Over(b); err == nil {
		t.Error("mismatched anchors should fail")
	}
	c := NewImage(3, 2, 0, 0)
	if err := a.Over(c); err == nil {
		t.Error("mismatched sizes should fail")
	}
}

func TestSplitHorizontal(t *testing.T) {
	im := NewImage(2, 5, 0, 4)
	for y := 0; y < 5; y++ {
		im.SetPixel(0, y, float32(y), 0, 0, 1, float32(y))
	}
	a, b := im.SplitHorizontal()
	if a.Height != 3 || b.Height != 2 {
		t.Fatalf("split heights = %d, %d", a.Height, b.Height)
	}
	if a.Y0 != 4 || b.Y0 != 7 {
		t.Errorf("anchors = %d, %d", a.Y0, b.Y0)
	}
	if r, _, _, _ := a.At(0, 2); r != 2 {
		t.Error("first half content wrong")
	}
	if r, _, _, _ := b.At(0, 0); r != 3 {
		t.Error("second half content wrong")
	}
}

func TestImageSerializeRoundTrip(t *testing.T) {
	im := NewImage(3, 2, 1, 5)
	im.SetPixel(2, 1, 0.1, 0.2, 0.3, 0.4, 9)
	got, err := DeserializeImage(im.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(got) {
		t.Error("round trip changed the image")
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
