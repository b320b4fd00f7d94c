// Package register implements the paper's third use case (§V-C): parallel
// registration of tiled 3-D microscopy volumes. Adjacent tiles of an
// acquisition grid overlap by ~15%; the dataflow exchanges the overlapping
// sub-volumes between neighbors (Fig. 8), evaluates the correct alignment
// of every adjacent pair by normalized cross-correlation, and finally
// solves for the absolute position of each volume.
//
// The dataflow is the Neighbor2D graph: per grid cell, an extract task
// reads the tile and sends each neighbor a message, the overlap strip
// facing it toward West and North and an empty payload toward East and
// South; a process task correlates the tile against its East and South
// neighbors' strips and emits the estimated pairwise offsets as its sink
// output. West and North estimates are the mirror image, so no task
// reads the strips an extract would cut toward East and South. The final
// placement (the paper's sort/evaluate stage) is a deterministic
// propagation over the estimated offsets.
package register

import (
	"fmt"
	"math"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// Config describes the acquisition: grid dimensions, cubic tile edge,
// nominal overlap fraction, and the stage-jitter bound that defines the
// correlation search window.
type Config struct {
	GridW, GridH int
	Tile         int
	Overlap      float64
	Jitter       int
}

// Stride returns the nominal tile-to-tile displacement in voxels.
func (cfg Config) Stride() int {
	s := int(float64(cfg.Tile) * (1 - cfg.Overlap))
	if s < 1 {
		s = 1
	}
	return s
}

// stripWidth is the width of the exchanged overlap strips: the nominal
// overlap plus the jitter margin on both sides.
func (cfg Config) stripWidth() int {
	w := cfg.Tile - cfg.Stride() + 2*cfg.Jitter
	if w < 1 {
		w = 1
	}
	if w > cfg.Tile {
		w = cfg.Tile
	}
	return w
}

// Graph returns the neighbor dataflow for the acquisition grid.
func (cfg Config) Graph() (*graphs.Neighbor2D, error) {
	return graphs.NewNeighbor2D(cfg.GridW, cfg.GridH)
}

// InitialInputs addresses each tile volume to its extract task. Tiles must
// be in row-major grid order, as produced by data.BrainSpecimen.
func (cfg Config) InitialInputs(g *graphs.Neighbor2D, tiles []data.BrainTile) (map[core.TaskId][]core.Payload, error) {
	if len(tiles) != cfg.GridW*cfg.GridH {
		return nil, fmt.Errorf("register: %d tiles for a %dx%d grid", len(tiles), cfg.GridW, cfg.GridH)
	}
	initial := make(map[core.TaskId][]core.Payload, len(tiles))
	for _, tl := range tiles {
		initial[g.ExtractId(tl.GX, tl.GY)] = []core.Payload{core.Object(tl.Volume)}
	}
	return initial, nil
}

// MaxGrid is the widest and tallest grid registration accepts: an
// Estimate's wire form stores each cell coordinate in one byte.
const MaxGrid = 256

// ConfigError reports a Config that registration cannot run.
type ConfigError struct{ Reason string }

func (e *ConfigError) Error() string { return "register: invalid config: " + e.Reason }

// Validate reports, as a *ConfigError, a grid outside 1..MaxGrid on either
// axis, a tile edge below 2 or a negative jitter.
func (cfg Config) Validate() error {
	var reason string
	switch {
	case cfg.GridW < 1 || cfg.GridH < 1 || cfg.GridW > MaxGrid || cfg.GridH > MaxGrid:
		reason = fmt.Sprintf("grid %dx%d outside 1..%d per axis", cfg.GridW, cfg.GridH, MaxGrid)
	case cfg.Tile < 2:
		reason = fmt.Sprintf("tile size %d below 2", cfg.Tile)
	case cfg.Jitter < 0:
		reason = fmt.Sprintf("negative jitter %d", cfg.Jitter)
	default:
		return nil
	}
	return &ConfigError{Reason: reason}
}

// Register binds the extract and process callbacks to a controller
// initialized with the neighbor graph.
func (cfg Config) Register(c core.CallbackRegistrar, g *graphs.Neighbor2D) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.GridW != g.Width() || cfg.GridH != g.Height() {
		return fmt.Errorf("register: config grid %dx%d does not match graph %dx%d", cfg.GridW, cfg.GridH, g.Width(), g.Height())
	}
	if err := c.RegisterCallback(graphs.NeighborExtractCB, cfg.extractCallback(g)); err != nil {
		return err
	}
	return c.RegisterCallback(graphs.NeighborProcessCB, cfg.processCallback(g))
}

// asField extracts a field from a payload.
func asField(p core.Payload) (*data.Field, error) {
	if p.Object != nil {
		f, ok := p.Object.(*data.Field)
		if !ok {
			return nil, fmt.Errorf("register: payload object is %T, want *data.Field", p.Object)
		}
		return f, nil
	}
	return data.DeserializeField(p.Data)
}

// extractCallback emits the tile itself (slot 0, to the own process task)
// plus one facing strip per existing neighbor.
func (cfg Config) extractCallback(g *graphs.Neighbor2D) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		tile, err := asField(in[0])
		if err != nil {
			return nil, err
		}
		x, y, _ := g.CellOf(id)
		dirs := g.NeighborDirs(x, y)
		out := make([]core.Payload, 1+len(dirs))
		cfg.strips(tile, dirs, out)
		return out, nil
	}
}

// strips fills out[0] with the tile and out[1+s] with the strip facing the
// neighbor in direction dirs[s] if it lies West or North, whose estimate
// correlates it. Toward East and South out stays empty: those estimates
// read only their own East and South neighbors.
func (cfg Config) strips(tile *data.Field, dirs []graphs.Direction, out []core.Payload) {
	out[0] = core.Object(tile)
	w := cfg.stripWidth()
	for s, d := range dirs {
		switch d {
		case graphs.West:
			out[1+s] = core.Object(tile.SubField(0, 0, 0, w, tile.NY, tile.NZ))
		case graphs.North:
			out[1+s] = core.Object(tile.SubField(0, 0, 0, tile.NX, w, tile.NZ))
		}
	}
}

// processCallback correlates the tile against the facing strips of its
// East and South neighbors (West/North estimates are the mirror image and
// therefore redundant) over the full jitter window and emits the estimates
// as the sink output.
func (cfg Config) processCallback(g *graphs.Neighbor2D) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		x, y, _ := g.CellOf(id)
		out, err := cfg.estimate(in, in[1:], g.NeighborDirs(x, y), x, y, 2*cfg.Jitter, -1, Estimate{})
		if err != nil {
			return nil, err
		}
		return out[:1], nil
	}
}

// estimate correlates the tile (in[0]) against the East and South strips
// (strips[s] for dirs[s]) over the window of radius r. It returns cell
// (x, y)'s serialized Estimate followed by the strips it read, decoded,
// East first: the outputs of an iterative process task, in one
// allocation. With inner ≥ 0 it searches only the ring outside the window
// of radius inner, whose optimum carried holds.
func (cfg Config) estimate(in, strips []core.Payload, dirs []graphs.Direction, x, y, r, inner int, carried Estimate) ([]core.Payload, error) {
	tile, err := asField(in[0])
	if err != nil {
		return nil, err
	}
	est := Estimate{X: x, Y: y}
	out := make([]core.Payload, 1, 3)
	for s, d := range dirs {
		if d != graphs.East && d != graphs.South {
			continue
		}
		strip, err := asField(strips[s])
		if err != nil {
			return nil, err
		}
		if d == graphs.East {
			m := cfg.search(tile, strip, d, r, inner, match{carried.EastDx, carried.EastDy, carried.EastScore})
			est.HasEast, est.EastDx, est.EastDy, est.EastScore = true, m.dx, m.dy, m.score
		} else {
			m := cfg.search(tile, strip, d, r, inner, match{carried.SouthDx, carried.SouthDy, carried.SouthScore})
			est.HasSouth, est.SouthDx, est.SouthDy, est.SouthScore = true, m.dx, m.dy, m.score
		}
		out = append(out, core.Object(strip))
	}
	out[0] = core.Buffer(est.Serialize())
	return out, nil
}

// match is one displacement hypothesis and its NCC score.
type match struct {
	dx, dy int
	score  float64
}

// merge returns whichever of the best so far m and the candidate c a
// strict-'>' scan in (dy, dx) order keeps: c if it scores higher, or if it
// ties and comes first in scan order. A −Inf tie keeps m, so the
// (0, 0, −Inf) start survives a window where nothing scores.
func (m match) merge(c match) match {
	if c.score > m.score || c.score == m.score && !math.IsInf(m.score, -1) && (c.dy < m.dy || c.dy == m.dy && c.dx < m.dx) {
		return c
	}
	return m
}

// search returns the first NCC maximum, in (dy, dx) order, over the
// displacements within radius r (Chebyshev) of the nominal displacement
// toward an East neighbor (stride, 0) or a South one (0, stride). Both
// tiles jitter independently, so the full window has radius 2·Jitter.
// With inner < 0 it scans the whole window from (0, 0, −Inf). With
// inner ≥ 0, seed must be the first maximum of the window of radius inner;
// only the ring outside it is scanned, and merge gives the same
// displacement and score bits as the whole scan.
func (cfg Config) search(tile, strip *data.Field, dir graphs.Direction, r, inner int, seed match) match {
	cx, cy := cfg.Stride(), 0
	if dir == graphs.South {
		cx, cy = 0, cx
	}
	best := match{score: math.Inf(-1)}
	if inner >= 0 {
		best = seed
	}
	for dy := cy - r; dy <= cy+r; dy++ {
		for dx := cx - r; dx <= cx+r; dx++ {
			if dx == cx-inner && dy >= cy-inner && dy <= cy+inner {
				dx = cx + inner // skip the inner window's span of this row
				continue
			}
			best = best.merge(match{dx, dy, ncc(tile, strip, dx, dy)})
		}
	}
	return best
}

// ncc computes normalized cross-correlation between the tile and a
// neighbor strip under the hypothesis that strip voxel (i, j, k)
// corresponds to tile voxel (i+dx, j+dy, k). Only in-bounds voxels
// contribute, summed in (k, j, i) order along contiguous rows; fewer than
// 8 valid voxels scores -Inf.
func ncc(tile, strip *data.Field, dx, dy int) float64 {
	i0, i1 := max(0, -dx), min(strip.NX, tile.NX-dx)
	j0, j1 := max(0, -dy), min(strip.NY, tile.NY-dy)
	if i1-i0 <= 0 || j1-j0 <= 0 || strip.NZ*(j1-j0)*(i1-i0) < 8 {
		return math.Inf(-1)
	}
	var sa, sb, saa, sbb, sab float64
	for k := 0; k < strip.NZ; k++ {
		for j := j0; j < j1; j++ {
			ta := tile.Values[tile.Index(i0+dx, j+dy, k):][:i1-i0]
			sr := strip.Values[strip.Index(i0, j, k):][:len(ta)]
			for i, v := range ta {
				a := float64(v)
				b := float64(sr[i])
				sa += a
				sb += b
				saa += a * a
				sbb += b * b
				sab += a * b
			}
		}
	}
	fn := float64(strip.NZ * (j1 - j0) * (i1 - i0))
	cov := sab - sa*sb/fn
	va := saa - sa*sa/fn
	vb := sbb - sb*sb/fn
	if va <= 0 || vb <= 0 {
		return math.Inf(-1)
	}
	return cov / math.Sqrt(va*vb)
}
