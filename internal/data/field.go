// Package data provides the synthetic datasets of the reproduction and the
// block decompositions the use cases run over.
//
// The paper evaluates on a 1024³ HCCI combustion dataset (inflated from a
// periodic 512³ simulation output) and on 25 tiled 1024³ brain microscopy
// volumes with 15% overlap. Neither dataset is publicly redistributable at
// that size, so this package generates deterministic synthetic equivalents:
// a periodic scalar field whose "ignition kernels" reproduce the roughly
// uniform feature distribution the merge-tree workload depends on, and
// tiled volumes with known ground-truth offsets for registration.
package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Field is a dense 3-D scalar field stored in x-fastest order.
type Field struct {
	NX, NY, NZ int
	Values     []float32
}

// NewField allocates a zero field of the given dimensions.
func NewField(nx, ny, nz int) *Field {
	return &Field{NX: nx, NY: ny, NZ: nz, Values: make([]float32, nx*ny*nz)}
}

// At returns the value at (x, y, z).
func (f *Field) At(x, y, z int) float32 {
	return f.Values[(z*f.NY+y)*f.NX+x]
}

// Set stores a value at (x, y, z).
func (f *Field) Set(x, y, z int, v float32) {
	f.Values[(z*f.NY+y)*f.NX+x] = v
}

// Index returns the linear index of (x, y, z).
func (f *Field) Index(x, y, z int) int { return (z*f.NY+y)*f.NX + x }

// Coords returns the coordinates of a linear index.
func (f *Field) Coords(i int) (x, y, z int) {
	x = i % f.NX
	y = (i / f.NX) % f.NY
	z = i / (f.NX * f.NY)
	return
}

// Kernel is one Gaussian feature of the synthetic combustion field: an
// "ignition region" analogue.
type Kernel struct {
	CX, CY, CZ float64 // center, in normalized [0,1) coordinates
	Sigma      float64 // width, normalized
	Amplitude  float64
}

// SyntheticHCCI generates a periodic scalar field of the given dimensions
// containing `features` Gaussian kernels placed by a deterministic hash of
// the seed. Like the paper's inflated HCCI data, the field is periodic, so
// replicating it to larger domains is a good proxy for a larger simulation:
// features stay roughly uniformly distributed.
func SyntheticHCCI(nx, ny, nz, features int, seed uint64) *Field {
	f := NewField(nx, ny, nz)
	kernels := SyntheticKernels(features, seed)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				px := float64(x) / float64(nx)
				py := float64(y) / float64(ny)
				pz := float64(z) / float64(nz)
				var v float64
				for _, k := range kernels {
					v += k.eval(px, py, pz)
				}
				f.Set(x, y, z, float32(v))
			}
		}
	}
	return f
}

// SyntheticKernels returns the deterministic kernel placement used by
// SyntheticHCCI.
func SyntheticKernels(features int, seed uint64) []Kernel {
	rng := NewRand(seed)
	ks := make([]Kernel, features)
	for i := range ks {
		ks[i] = Kernel{
			CX:        rng.Float64(),
			CY:        rng.Float64(),
			CZ:        rng.Float64(),
			Sigma:     0.02 + 0.06*rng.Float64(),
			Amplitude: 0.5 + rng.Float64(),
		}
	}
	return ks
}

// eval evaluates the kernel at a normalized position with periodic wrap.
func (k Kernel) eval(x, y, z float64) float64 {
	dx := periodicDist(x, k.CX)
	dy := periodicDist(y, k.CY)
	dz := periodicDist(z, k.CZ)
	d2 := dx*dx + dy*dy + dz*dz
	return k.Amplitude * math.Exp(-d2/(2*k.Sigma*k.Sigma))
}

// periodicDist is the distance between two coordinates on the unit circle.
func periodicDist(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 0.5 {
		d = 1 - d
	}
	return d
}

// SubField copies the region [x0,x0+sx) x [y0,y0+sy) x [z0,z0+sz) into a
// new field. Coordinates wrap periodically, matching the paper's periodic
// replication of the HCCI data.
//
// Rows are contiguous on both sides, so each destination row resolves its
// source row once and is filled by copying runs of it: one run when
// [x0,x0+sx) lies inside the domain, as every block of a Decomposition does,
// and one more per periodic wrap otherwise.
func (f *Field) SubField(x0, y0, z0, sx, sy, sz int) *Field {
	out := NewField(sx, sy, sz)
	if len(out.Values) == 0 {
		return out
	}
	xs := mod(x0, f.NX)
	dst := out.Values
	for z := 0; z < sz; z++ {
		plane := mod(z0+z, f.NZ) * f.NY
		for y := 0; y < sy; y++ {
			src := f.Values[(plane+mod(y0+y, f.NY))*f.NX:][:f.NX]
			row := dst[:sx]
			dst = dst[sx:]
			for x := xs; len(row) > 0; x = 0 {
				row = row[copy(row, src[x:]):]
			}
		}
	}
	return out
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// MinMax returns the extrema of the field.
func (f *Field) MinMax() (lo, hi float32) {
	if len(f.Values) == 0 {
		return 0, 0
	}
	lo, hi = f.Values[0], f.Values[0]
	for _, v := range f.Values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Serialize encodes the field: three int32 dimensions followed by the raw
// float32 values (little endian).
func (f *Field) Serialize() []byte {
	le := binary.LittleEndian
	buf := make([]byte, 12+4*len(f.Values))
	le.PutUint32(buf[0:], uint32(f.NX))
	le.PutUint32(buf[4:], uint32(f.NY))
	le.PutUint32(buf[8:], uint32(f.NZ))
	EncodeFloat32s(buf[12:], f.Values)
	return buf
}

// DeserializeField decodes a field encoded by Serialize.
func DeserializeField(b []byte) (*Field, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("data: field buffer too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	nx, ny, nz := int(le.Uint32(b[0:])), int(le.Uint32(b[4:])), int(le.Uint32(b[8:]))
	// The buffer holds at most held values; bounding each partial product
	// by it before multiplying keeps nx*ny*nz from wrapping.
	held := (len(b) - 12) / 4
	if nx < 0 || ny < 0 || nz < 0 || (ny > 0 && nx > held/ny) || (nz > 0 && nx*ny > held/nz) ||
		len(b) != 12+4*nx*ny*nz {
		return nil, fmt.Errorf("data: field buffer size %d does not match %dx%dx%d", len(b), nx, ny, nz)
	}
	f := NewField(nx, ny, nz)
	DecodeFloat32s(f.Values, b[12:])
	return f, nil
}

// littleEndian reports whether this host stores a float32 in the byte order
// of the wire encoding, so that EncodeFloat32s and DecodeFloat32s may copy
// memory directly.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// EncodeFloat32s writes the IEEE-754 bits of src into dst as little-endian
// uint32s; dst must hold 4*len(src) bytes. Field and render.Image
// serialization share it: one bulk copy on little-endian hosts, one value
// at a time elsewhere.
func EncodeFloat32s(dst []byte, src []float32) {
	dst = dst[:4*len(src)]
	if littleEndian {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(src))), len(dst)))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// DecodeFloat32s fills dst from the first 4*len(dst) bytes of src, written
// by EncodeFloat32s.
func DecodeFloat32s(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	if littleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(src)), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// Rand is a small deterministic PRNG (splitmix64) used for reproducible
// synthetic data; math/rand is avoided so fixture bytes never depend on the
// Go release.
type Rand struct{ state uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("data: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns an approximately standard-normal value (sum of 12
// uniforms, Irwin-Hall).
func (r *Rand) NormFloat64() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}
