package data

import "fmt"

// View is block i of a Decomposition read in place from a Field that the
// decomposition holds: the block, ghost layer included, as a strided
// window of the volume (Window). Render and merge-tree leaves take their
// inputs as views, so handing a run its inputs copies no voxel. A view's
// wire form (Serialize) is the extracted block, byte for byte what
// Decomposition.Extract gives, so every path that serializes an input —
// another rank, a fault-tolerant run's input clone, a journal, a Legion
// region — carries the same bytes as an extracted block.
//
// A view reads the field whenever its consumer runs, so the field must not
// change while a view of it is in use.
type View struct {
	f *Field
	d *Decomposition
	i int
}

// View returns block i of f as a view. f's dimensions must be the
// decomposition's domain.
func (d *Decomposition) View(f *Field, i int) (*View, error) {
	if err := d.Holds(f); err != nil {
		return nil, err
	}
	if i < 0 || i >= d.Blocks() {
		return nil, fmt.Errorf("data: block %d of a %d-block decomposition", i, d.Blocks())
	}
	return &View{f: f, d: d, i: i}, nil
}

// Views returns every block of f as a view, in block order, in one array.
// f's dimensions must be the decomposition's domain.
func (d *Decomposition) Views(f *Field) ([]View, error) {
	if err := d.Holds(f); err != nil {
		return nil, err
	}
	views := make([]View, d.Blocks())
	for i := range views {
		views[i] = View{f: f, d: d, i: i}
	}
	return views, nil
}

// Of returns the decomposition and the index of the view's block.
func (v *View) Of() (*Decomposition, int) { return v.d, v.i }

// Is reports whether v is block i of a decomposition equal to d.
func (v *View) Is(d *Decomposition, i int) bool { return v.i == i && *v.d == *d }

// String names the view's block and its decomposition's grid.
func (v *View) String() string {
	return fmt.Sprintf("block %d of a %dx%dx%d grid", v.i, v.d.BXN, v.d.BYN, v.d.BZN)
}

// Window returns the view's voxels in place: voxel (x, y, z) of the block,
// relative to its origin, is vals[origin + z*plane + y*row + x]. An
// extracted block b is the same window with origin 0, row b.NX and plane
// b.NX*b.NY, which is how kernels read both alike.
func (v *View) Window() (vals []float32, origin, row, plane int) {
	b := v.d.Block(v.i)
	return v.f.Values, v.f.Index(b.X0, b.Y0, b.Z0), v.f.NX, v.f.NX * v.f.NY
}

// Serialize encodes the block as Field.Serialize encodes its extracted
// copy, writing each row straight from the volume (core.Serializable).
func (v *View) Serialize() []byte {
	sx, sy, sz := v.d.Block(v.i).Dims()
	vals, origin, row, plane := v.Window()
	buf := fieldBuffer(sx, sy, sz)
	out := buf[12:]
	for z := 0; z < sz; z++ {
		for y := 0; y < sy; y++ {
			EncodeFloat32s(out, vals[origin+z*plane+y*row:][:sx])
			out = out[4*sx:]
		}
	}
	return buf
}
