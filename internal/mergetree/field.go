package mergetree

import (
	"github.com/babelflow/babelflow-go/internal/data"
)

// VertexId computes the global vertex id of domain coordinates (x, y, z) in
// an nx*ny*nz domain, x-fastest.
func VertexId(x, y, z, nx, ny int) uint64 {
	return uint64((z*ny+y)*nx + x)
}

// VertexCoords inverts VertexId.
func VertexCoords(id uint64, nx, ny int) (x, y, z int) {
	i := int(id)
	x = i % nx
	y = (i / nx) % ny
	z = i / (nx * ny)
	return
}

// FromField computes the augmented merge tree of one block of a scalar
// field, restricted to vertices with value >= threshold, using
// 6-connectivity. Vertices carry global domain ids (the block's origin and
// the domain dimensions determine them), so trees of adjacent blocks share
// the ids of their common ghost-layer vertices and can be joined. The block
// must fit the domain's x and y extent, so that its ids ascend in z-y-x
// order and a vertex's neighbours lie ±1, ±NX and ±NX·NY voxels away.
func FromField(block *data.Field, originX, originY, originZ, domainNX, domainNY int, threshold float32) *Tree {
	b := data.Block{X0: originX, Y0: originY, Z0: originZ, X1: originX + block.NX, Y1: originY + block.NY, Z1: originZ + block.NZ}
	return sweep(block.Values, 0, block.NX, block.NX*block.NY, b, domainNX, domainNY, threshold)
}

// sweep is the one local-tree kernel, behind FromField and the leaves'
// in-place views (data.View). It reads block b, whose extent gives the
// global ids, from vals: voxel (x, y, z) of the block, relative to its
// origin, is vals[origin + z*plane + y*row + x], so an extracted block
// (row = its NX) and the whole volume are read alike. A block-local index
// numbers the voxels, so the adjacency is the same for both.
func sweep(vals []float32, origin, row, plane int, b data.Block, domainNX, domainNY int, threshold float32) *Tree {
	nx, ny, nz := b.Dims()
	w := works.Get().(*work)
	defer works.Put(w)
	// at maps a block voxel to its node index, or -1 below the threshold;
	// ends[r] is the node count after (y, z) row r, so the second pass
	// skips the rows without a node.
	at, ends := grow(&w.at, nx*ny*nz), grow(&w.ends, ny*nz)
	n := int32(0)
	for z, r := 0, 0; z < nz; z++ {
		for y := 0; y < ny; y, r = y+1, r+1 {
			dst := at[r*nx : (r+1)*nx]
			for x, v := range vals[origin+z*plane+y*row:][:nx] {
				dst[x] = -1
				if v >= threshold {
					dst[x], n = n, n+1
				}
			}
			ends[r] = n
		}
	}
	ids, val := make([]uint64, 0, n), make([]float32, 0, n)
	off, adj := append(grow(&w.off, int(n)+1)[:0], 0), grow(&w.adj, 6*int(n))[:0]
	link := func(j int) {
		if at[j] >= 0 {
			adj = append(adj, at[j])
		}
	}
	for z, r := 0, 0; z < nz; z++ {
		for y := 0; y < ny; y, r = y+1, r+1 {
			if int(ends[r]) == len(ids) {
				continue
			}
			src := vals[origin+z*plane+y*row:][:nx]
			id := VertexId(b.X0, b.Y0+y, b.Z0+z, domainNX, domainNY)
			for x, a := range at[r*nx : (r+1)*nx] {
				if a < 0 {
					continue
				}
				i := r*nx + x
				ids, val = append(ids, id+uint64(x)), append(val, src[x])
				if x > 0 {
					link(i - 1)
				}
				if x < nx-1 {
					link(i + 1)
				}
				if y > 0 {
					link(i - nx)
				}
				if y < ny-1 {
					link(i + nx)
				}
				if z > 0 {
					link(i - nx*ny)
				}
				if z < nz-1 {
					link(i + nx*ny)
				}
				off = append(off, int32(len(adj)))
			}
		}
	}
	return compute(ids, val, off, adj, w)
}

// BoundaryKeeper returns a keep-predicate for Tree.Reduce that retains
// vertices lying on the internal face planes of a block decomposition —
// the vertices shared between adjacent blocks, through which cross-block
// connectivity flows. Join tasks reduce their merged trees with it before
// forwarding, bounding the tree sizes exchanged up the reduction.
func BoundaryKeeper(d *data.Decomposition) func(id uint64) bool {
	sx, sy, sz := d.NX/d.BXN, d.NY/d.BYN, d.NZ/d.BZN
	return func(id uint64) bool {
		x, y, z := VertexCoords(id, d.NX, d.NY)
		if x > 0 && x%sx == 0 {
			return true
		}
		if y > 0 && y%sy == 0 {
			return true
		}
		return z > 0 && z%sz == 0
	}
}
