package data

import "fmt"

// Block describes one block of a regular 3-D domain decomposition,
// including one layer of ghost overlap when requested. Low coordinates are
// inclusive, high exclusive.
type Block struct {
	// Index of the block in the decomposition grid.
	BX, BY, BZ int
	// Extent in the global domain.
	X0, Y0, Z0 int
	X1, Y1, Z1 int
}

// Dims returns the block's extent.
func (b Block) Dims() (sx, sy, sz int) { return b.X1 - b.X0, b.Y1 - b.Y0, b.Z1 - b.Z0 }

// Points returns the number of grid points in the block.
func (b Block) Points() int {
	sx, sy, sz := b.Dims()
	return sx * sy * sz
}

// Decomposition is a regular grid of blocks covering a 3-D domain. Adjacent
// blocks share one layer of grid points (the standard merge-tree ghost
// layer), so local structures can be stitched along block boundaries.
type Decomposition struct {
	NX, NY, NZ    int // domain size
	BXN, BYN, BZN int // blocks per axis
}

// NewDecomposition divides an nx*ny*nz domain into bx*by*bz blocks. The
// domain must be divisible by the block grid on each axis.
func NewDecomposition(nx, ny, nz, bx, by, bz int) (*Decomposition, error) {
	if bx < 1 || by < 1 || bz < 1 {
		return nil, fmt.Errorf("data: block grid %dx%dx%d invalid", bx, by, bz)
	}
	if nx%bx != 0 || ny%by != 0 || nz%bz != 0 {
		return nil, fmt.Errorf("data: domain %dx%dx%d not divisible by block grid %dx%dx%d", nx, ny, nz, bx, by, bz)
	}
	return &Decomposition{NX: nx, NY: ny, NZ: nz, BXN: bx, BYN: by, BZN: bz}, nil
}

// Blocks returns the number of blocks.
func (d *Decomposition) Blocks() int { return d.BXN * d.BYN * d.BZN }

// BlockIndex returns the linear index of block (bx, by, bz).
func (d *Decomposition) BlockIndex(bx, by, bz int) int {
	return (bz*d.BYN+by)*d.BXN + bx
}

// BlockCoords returns the grid coordinates of a linear block index.
func (d *Decomposition) BlockCoords(i int) (bx, by, bz int) {
	bx = i % d.BXN
	by = (i / d.BXN) % d.BYN
	bz = i / (d.BXN * d.BYN)
	return
}

// Block returns the extent of the i-th block, extended by one shared ghost
// layer toward higher coordinates (except at the domain boundary), so that
// neighboring blocks overlap on a face — the sharing the merge-tree
// boundary structures rely on.
func (d *Decomposition) Block(i int) Block {
	bx, by, bz := d.BlockCoords(i)
	sx, sy, sz := d.NX/d.BXN, d.NY/d.BYN, d.NZ/d.BZN
	b := Block{
		BX: bx, BY: by, BZ: bz,
		X0: bx * sx, Y0: by * sy, Z0: bz * sz,
		X1: (bx + 1) * sx, Y1: (by + 1) * sy, Z1: (bz + 1) * sz,
	}
	if b.X1 < d.NX {
		b.X1++
	}
	if b.Y1 < d.NY {
		b.Y1++
	}
	if b.Z1 < d.NZ {
		b.Z1++
	}
	return b
}

// Holds checks that a field's dimensions are the decomposition's domain.
func (d *Decomposition) Holds(f *Field) error {
	if f.NX != d.NX || f.NY != d.NY || f.NZ != d.NZ {
		return fmt.Errorf("data: field %dx%dx%d does not match decomposition domain %dx%dx%d",
			f.NX, f.NY, f.NZ, d.NX, d.NY, d.NZ)
	}
	return nil
}

// Extract copies the i-th block (with ghost layer) out of a field whose
// dimensions match the decomposition's domain.
func (d *Decomposition) Extract(f *Field, i int) (*Field, error) {
	if err := d.Holds(f); err != nil {
		return nil, err
	}
	b := d.Block(i)
	sx, sy, sz := b.Dims()
	return f.SubField(b.X0, b.Y0, b.Z0, sx, sy, sz), nil
}
