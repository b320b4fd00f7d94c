package data

import (
	"encoding/hex"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestFieldIndexing(t *testing.T) {
	f := NewField(4, 3, 2)
	f.Set(1, 2, 1, 7.5)
	if f.At(1, 2, 1) != 7.5 {
		t.Error("Set/At roundtrip failed")
	}
	i := f.Index(3, 1, 1)
	x, y, z := f.Coords(i)
	if x != 3 || y != 1 || z != 1 {
		t.Errorf("Coords(Index(3,1,1)) = %d,%d,%d", x, y, z)
	}
	if len(f.Values) != 24 {
		t.Errorf("len = %d", len(f.Values))
	}
}

func TestFieldCoordsIndexProperty(t *testing.T) {
	f := NewField(5, 7, 3)
	check := func(i16 uint16) bool {
		i := int(i16) % len(f.Values)
		x, y, z := f.Coords(i)
		return f.Index(x, y, z) == i
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSyntheticHCCIDeterministicAndPeriodic(t *testing.T) {
	a := SyntheticHCCI(16, 16, 16, 8, 42)
	b := SyntheticHCCI(16, 16, 16, 8, 42)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("same seed produced different fields")
		}
	}
	c := SyntheticHCCI(16, 16, 16, 8, 43)
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fields")
	}
	lo, hi := a.MinMax()
	if !(hi > lo) || math.IsNaN(float64(hi)) {
		t.Errorf("degenerate field: min=%f max=%f", lo, hi)
	}
}

func TestSubFieldPeriodicWrap(t *testing.T) {
	f := NewField(4, 4, 4)
	for i := range f.Values {
		f.Values[i] = float32(i)
	}
	s := f.SubField(3, 3, 3, 2, 2, 2)
	if s.At(0, 0, 0) != f.At(3, 3, 3) {
		t.Error("corner mismatch")
	}
	if s.At(1, 1, 1) != f.At(0, 0, 0) {
		t.Error("wrap mismatch")
	}
	// Negative offsets wrap too.
	s2 := f.SubField(-1, 0, 0, 2, 1, 1)
	if s2.At(0, 0, 0) != f.At(3, 0, 0) {
		t.Error("negative wrap mismatch")
	}
	// Seeded draws: every axis wraps, extents wider than the domain and empty
	// extents all occur.
	rng := NewRand(26)
	for i := 0; i < 3000; i++ {
		g := rampField(1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7))
		x0, y0, z0 := rng.Intn(40)-20, rng.Intn(40)-20, rng.Intn(40)-20
		sx, sy, sz := rng.Intn(20), rng.Intn(20), rng.Intn(20)
		if !sameField(g.SubField(x0, y0, z0, sx, sy, sz), subFieldRef(g, x0, y0, z0, sx, sy, sz)) {
			t.Fatalf("draw %d: SubField(%d,%d,%d, %d,%d,%d) of %dx%dx%d differs from the per-voxel reference",
				i, x0, y0, z0, sx, sy, sz, g.NX, g.NY, g.NZ)
		}
	}
}

// TestExtractMatchesReference cuts every block of the benchmark shapes and
// compares each with the per-voxel reference.
func TestExtractMatchesReference(t *testing.T) {
	for _, n := range []int{128, 256} {
		f := rampField(n, n, n)
		d, err := NewDecomposition(n, n, n, 2, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d.Blocks(); i++ {
			got, err := d.Extract(f, i)
			if err != nil {
				t.Fatal(err)
			}
			b := d.Block(i)
			sx, sy, sz := b.Dims()
			if !sameField(got, subFieldRef(f, b.X0, b.Y0, b.Z0, sx, sy, sz)) {
				t.Fatalf("%d³ block %d differs from the per-voxel reference", n, i)
			}
		}
	}
}

// TestExtractAllocationPins: a block is one Field and its values, at any
// size.
func TestExtractAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{8, 64} {
		f := rampField(n, n, n)
		d, _ := NewDecomposition(n, n, n, 2, 2, 8)
		i := 0
		if a := testing.AllocsPerRun(50, func() {
			if _, err := d.Extract(f, i%d.Blocks()); err != nil {
				panic(err)
			}
			i++
		}); a != 2 {
			t.Errorf("%d³: Extract allocates %v per block, pinned at 2", n, a)
		}
	}
}

// BenchmarkExtract cuts all 32 blocks of a 256³ field split 2×2×8, the
// render-tcp decomposition; the bytes are the voxels copied.
func BenchmarkExtract(b *testing.B) {
	f := rampField(256, 256, 256)
	d, _ := NewDecomposition(256, 256, 256, 2, 2, 8)
	var voxels int
	for i := 0; i < d.Blocks(); i++ {
		voxels += d.Block(i).Points()
	}
	b.SetBytes(4 * int64(voxels))
	b.ReportAllocs()
	b.ResetTimer()
	var err error
	for n := 0; n < b.N; n++ {
		for i := 0; i < d.Blocks(); i++ {
			if blockSink, err = d.Extract(f, i); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// blockSink keeps the compiler from dropping the benchmarked Extract.
var blockSink *Field

// subFieldRef is the definition SubField implements: every destination
// voxel reads its periodically wrapped source voxel.
func subFieldRef(f *Field, x0, y0, z0, sx, sy, sz int) *Field {
	out := NewField(sx, sy, sz)
	for z := 0; z < sz; z++ {
		for y := 0; y < sy; y++ {
			for x := 0; x < sx; x++ {
				out.Set(x, y, z, f.At(mod(x0+x, f.NX), mod(y0+y, f.NY), mod(z0+z, f.NZ)))
			}
		}
	}
	return out
}

// rampField numbers its voxels 0, 1, 2, ..., so every voxel is distinct
// (float32 holds the integers exactly up to 2^24 voxels, i.e. 256³).
func rampField(nx, ny, nz int) *Field {
	f := NewField(nx, ny, nz)
	for i := range f.Values {
		f.Values[i] = float32(i)
	}
	return f
}

func sameField(a, b *Field) bool {
	return a.NX == b.NX && a.NY == b.NY && a.NZ == b.NZ && slices.Equal(a.Values, b.Values)
}

func TestFieldSerializeRoundTrip(t *testing.T) {
	f := SyntheticHCCI(5, 3, 2, 4, 7)
	b := f.Serialize()
	g, err := DeserializeField(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 5 || g.NY != 3 || g.NZ != 2 {
		t.Fatalf("dims = %d %d %d", g.NX, g.NY, g.NZ)
	}
	for i := range f.Values {
		if f.Values[i] != g.Values[i] {
			t.Fatal("value mismatch after round trip")
		}
	}
}

// TestFieldSerializeGolden pins the field encoding byte for byte: a change
// of codec must not change what crosses ranks.
func TestFieldSerializeGolden(t *testing.T) {
	f := &Field{NX: 3, NY: 2, NZ: 1, Values: []float32{0, 1, -1.5, 2.25, float32(math.Inf(1)), 1e-3}}
	const want = "030000000200000001000000000000000000803f0000c0bf000010400000807f6f12833a"
	if got := hex.EncodeToString(f.Serialize()); got != want {
		t.Fatalf("Serialize = %s, want %s", got, want)
	}
	b, _ := hex.DecodeString(want)
	g, err := DeserializeField(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("golden bytes decode to %+v, want %+v", g, f)
	}
}

func TestDeserializeFieldErrors(t *testing.T) {
	if _, err := DeserializeField([]byte{1, 2}); err == nil {
		t.Error("short buffer should fail")
	}
	f := NewField(2, 2, 2)
	b := f.Serialize()
	if _, err := DeserializeField(b[:len(b)-4]); err == nil {
		t.Error("truncated buffer should fail")
	}
	// 2²² voxels on each axis: nx*ny*nz wraps to 0 in 64 bits, which
	// matched the 12-byte buffer's 0 values.
	wrapped := []byte{0, 0, 0x40, 0, 0, 0, 0x40, 0, 0, 0, 0x40, 0}
	if g, err := DeserializeField(wrapped); err == nil {
		t.Errorf("a %dx%dx%d field with %d values should fail", g.NX, g.NY, g.NZ, len(g.Values))
	}
}

// TestFloat32sCodecPaths: the bulk copy and the per-value loop write and
// read the same bytes, signed zeros, infinities and NaN payloads included.
func TestFloat32sCodecPaths(t *testing.T) {
	if !littleEndian {
		t.Skip("the bulk path runs only on little-endian hosts")
	}
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -2.5, 1e-42,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa00000)}
	bulk := make([]byte, 4*len(vals))
	EncodeFloat32s(bulk, vals)
	bulkBack := make([]float32, len(vals))
	DecodeFloat32s(bulkBack, bulk)
	littleEndian = false
	defer func() { littleEndian = true }()
	loop := make([]byte, 4*len(vals))
	EncodeFloat32s(loop, vals)
	loopBack := make([]float32, len(vals))
	DecodeFloat32s(loopBack, loop)
	if hex.EncodeToString(bulk) != hex.EncodeToString(loop) {
		t.Errorf("bulk encoding %x, per-value %x", bulk, loop)
	}
	for i, v := range vals {
		if w := math.Float32bits(v); math.Float32bits(bulkBack[i]) != w || math.Float32bits(loopBack[i]) != w {
			t.Errorf("value %d: decoded %08x (bulk) and %08x (per value), want %08x",
				i, math.Float32bits(bulkBack[i]), math.Float32bits(loopBack[i]), w)
		}
	}
}

func TestDecomposition(t *testing.T) {
	d, err := NewDecomposition(8, 8, 8, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Blocks() != 8 {
		t.Fatalf("Blocks = %d", d.Blocks())
	}
	// Interior block gets a ghost layer on each upper face.
	b0 := d.Block(0)
	if sx, sy, sz := b0.Dims(); sx != 5 || sy != 5 || sz != 5 {
		t.Errorf("block 0 dims = %d %d %d, want 5 5 5 (ghost layer)", sx, sy, sz)
	}
	// The last block touches the domain boundary: no ghost extension.
	b7 := d.Block(7)
	if b7.X1 != 8 || b7.Y1 != 8 || b7.Z1 != 8 {
		t.Errorf("block 7 extent = %+v", b7)
	}
	if sx, _, _ := b7.Dims(); sx != 4 {
		t.Errorf("boundary block x-dim = %d, want 4", sx)
	}
	bx, by, bz := d.BlockCoords(6)
	if d.BlockIndex(bx, by, bz) != 6 {
		t.Error("BlockIndex/BlockCoords mismatch")
	}
	if b7.Points() != 64 {
		t.Errorf("block 7 points = %d", b7.Points())
	}
}

func TestDecompositionErrors(t *testing.T) {
	if _, err := NewDecomposition(8, 8, 8, 3, 2, 2); err == nil {
		t.Error("non-divisible decomposition should fail")
	}
	if _, err := NewDecomposition(8, 8, 8, 0, 1, 1); err == nil {
		t.Error("zero blocks should fail")
	}
}

func TestDecompositionExtract(t *testing.T) {
	f := SyntheticHCCI(8, 8, 8, 4, 11)
	d, _ := NewDecomposition(8, 8, 8, 2, 1, 1)
	blk, err := d.Extract(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := d.Block(1)
	if blk.At(0, 0, 0) != f.At(b.X0, b.Y0, b.Z0) {
		t.Error("extracted block origin mismatch")
	}
	// Ghost sharing: block 0's last x-plane equals block 1's first.
	blk0, _ := d.Extract(f, 0)
	if blk0.At(blk0.NX-1, 0, 0) != blk.At(0, 0, 0) {
		t.Error("ghost layer not shared between adjacent blocks")
	}
	wrong := NewField(4, 4, 4)
	if _, err := d.Extract(wrong, 0); err == nil {
		t.Error("extract from mismatched field should fail")
	}
}

func TestBrainSpecimenGroundTruth(t *testing.T) {
	tiles := BrainSpecimen(3, 2, 16, 0.25, 2, 99)
	if len(tiles) != 6 {
		t.Fatalf("tiles = %d", len(tiles))
	}
	// Tile (0,0) has no jitter.
	stride := int(16 * 0.75)
	if tiles[0].TrueX != 2 || tiles[0].TrueY != 2 {
		t.Errorf("tile 0 offset = %d,%d (want jitter margin 2,2)", tiles[0].TrueX, tiles[0].TrueY)
	}
	// Other tiles sit within jitter of the nominal grid position.
	for _, tl := range tiles {
		nomX := tl.GX*stride + 2
		nomY := tl.GY*stride + 2
		if abs(tl.TrueX-nomX) > 2 || abs(tl.TrueY-nomY) > 2 {
			t.Errorf("tile (%d,%d) offset %d,%d too far from nominal %d,%d",
				tl.GX, tl.GY, tl.TrueX, tl.TrueY, nomX, nomY)
		}
		if tl.Volume.NX != 16 || tl.Volume.NY != 16 || tl.Volume.NZ != 16 {
			t.Errorf("tile volume dims %dx%dx%d", tl.Volume.NX, tl.Volume.NY, tl.Volume.NZ)
		}
	}
	// Overlap consistency: adjacent tiles share content at the ground
	// truth displacement. Compare tile (0,0) column near right edge with
	// tile (1,0) matching column.
	a, b := tiles[0], tiles[1]
	dx := b.TrueX - a.TrueX
	dy := b.TrueY - a.TrueY
	matches := 0
	for y := 4; y < 12; y++ {
		if a.Volume.At(dx+1, dy+y, 0) == b.Volume.At(1, y, 0) {
			matches++
		}
	}
	if matches != 8 {
		t.Errorf("overlap content mismatch: %d/8 samples equal", matches)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %f", v)
		}
		n := r.Intn(10)
		if n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
	// NormFloat64 has roughly zero mean.
	var sum float64
	for i := 0; i < 10000; i++ {
		sum += r.NormFloat64()
	}
	if mean := sum / 10000; math.Abs(mean) > 0.1 {
		t.Errorf("NormFloat64 mean = %f", mean)
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}
