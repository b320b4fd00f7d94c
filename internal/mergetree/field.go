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
	nx, ny, nz := block.NX, block.NY, block.NZ
	w := works.Get().(*work)
	defer works.Put(w)
	// at maps a block voxel to its node index, or -1 below the threshold.
	at := grow(&w.at, len(block.Values))
	n := int32(0)
	for i, v := range block.Values {
		at[i] = -1
		if v >= threshold {
			at[i], n = n, n+1
		}
	}
	ids, val := make([]uint64, 0, n), make([]float32, 0, n)
	off, adj := append(grow(&w.off, int(n)+1)[:0], 0), grow(&w.adj, 6*int(n))[:0]
	link := func(j int) {
		if at[j] >= 0 {
			adj = append(adj, at[j])
		}
	}
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			id := VertexId(originX, originY+y, originZ+z, domainNX, domainNY)
			for x := 0; x < nx; x, i, id = x+1, i+1, id+1 {
				if at[i] < 0 {
					continue
				}
				ids, val = append(ids, id), append(val, block.Values[i])
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
