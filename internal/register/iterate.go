// Iterative registration refinement: the registration dataflow re-flowed
// under core.Iterate until the pairwise estimates stop moving.
//
// The loop body is a widened neighbor dataflow. Per grid cell an extract
// task passes the tile on (it is carried between iterations) and, in
// iteration 0 only, cuts the strips its West and North neighbors read; a
// process task correlates the tile against its East and South neighbors'
// strips, which it carries into every later iteration, over a search
// window that expands by one voxel per iteration (scanning only the ring
// the expansion adds, seeded with the estimate the previous root blob
// carries), and a root task aggregates the per-cell estimates into one
// blob that records how many estimates changed. The loop gates on the root
// blob: the convergence predicate stops the flow once no estimate moved —
// which happens as soon as the window covers the correlation peak, so the
// converged estimates equal the static pipeline's full-window optimum —
// and the converged blob feeds Solve exactly like the static pipeline's
// sink outputs.
package register

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// IterRegCB is the callback id shared by every body task of the iterative
// registration graph; the callback dispatches on the task-id structure
// (extract, process or root), which keeps wire-tier registration to a
// single binding.
const IterRegCB core.CallbackId = 40

// iterHdr is the root blob header: a little-endian u32 count of estimates
// that changed relative to the previous iteration.
const iterHdr = 4

// cells returns the number of grid cells.
func (cfg Config) cells() int { return cfg.GridW * cfg.GridH }

// IterRootId returns the body-local id of the aggregation root — the
// loop's gate source and the key of its converged sink.
func (cfg Config) IterRootId() core.TaskId { return core.TaskId(2 * cfg.cells()) }

// neighborDirs mirrors graphs.Neighbor2D's canonical neighbor order (West,
// East, North, South, existing neighbors only) without needing a graph
// instance inside the callbacks.
func (cfg Config) neighborDirs(x, y int) []graphs.Direction {
	dirs := make([]graphs.Direction, 0, 4)
	if x > 0 {
		dirs = append(dirs, graphs.West)
	}
	if x < cfg.GridW-1 {
		dirs = append(dirs, graphs.East)
	}
	if y > 0 {
		dirs = append(dirs, graphs.North)
	}
	if y < cfg.GridH-1 {
		dirs = append(dirs, graphs.South)
	}
	return dirs
}

func neighborCell(x, y int, d graphs.Direction) (int, int) {
	switch d {
	case graphs.West:
		return x - 1, y
	case graphs.East:
		return x + 1, y
	case graphs.North:
		return x, y - 1
	}
	return x, y + 1
}

// carriedDirs lists the neighbors, East then South, whose strips cell
// (x, y)'s process task reads and carries.
func (cfg Config) carriedDirs(x, y int) []graphs.Direction {
	dirs := []graphs.Direction{graphs.East, graphs.South}
	if y == cfg.GridH-1 {
		dirs = dirs[:1]
	}
	if x == cfg.GridW-1 {
		dirs = dirs[1:]
	}
	return dirs
}

// IterBody builds the loop body graph. Per cell i (row-major), with nd
// neighbors of which nc lie East or South:
//
//	extract_i (id i):   in [tile (carried)]
//	                    out [own process, strip per neighbor, tile sink (carry source)]
//	process_i (id n+i): in [own tile, strip per neighbor, prev blob (gated), nc carried strips]
//	                    out [estimate -> root, nc strip sinks (carry sources)]
//	root (id 2n):       in [estimate per cell, prev blob (gated)]
//	                    out [blob sink (gate source)]
func (cfg Config) IterBody() (*core.ExplicitGraph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.cells()
	root := cfg.IterRootId()
	tasks := make([]core.Task, 0, 2*n+1)
	for i := 0; i < n; i++ {
		x, y := i%cfg.GridW, i/cfg.GridW
		dirs := cfg.neighborDirs(x, y)
		nc := len(cfg.carriedDirs(x, y))

		ex := core.Task{
			Id:       core.TaskId(i),
			Callback: IterRegCB,
			Incoming: []core.TaskId{core.ExternalInput},
			Outgoing: make([][]core.TaskId, 2+len(dirs)),
		}
		ex.Outgoing[0] = []core.TaskId{core.TaskId(n + i)}
		for s, d := range dirs {
			nx, ny := neighborCell(x, y, d)
			ex.Outgoing[1+s] = []core.TaskId{core.TaskId(n + ny*cfg.GridW + nx)}
		}
		// Last slot stays a sink: the tile pass-through the loop carries
		// into the next iteration's extract.

		pr := core.Task{
			Id:       core.TaskId(n + i),
			Callback: IterRegCB,
			Incoming: make([]core.TaskId, 0, 2+len(dirs)+nc),
			Outgoing: append([][]core.TaskId{{root}}, make([][]core.TaskId, nc)...), // strip sinks: carried
		}
		pr.Incoming = append(pr.Incoming, core.TaskId(i))
		for _, d := range dirs {
			nx, ny := neighborCell(x, y, d)
			pr.Incoming = append(pr.Incoming, core.TaskId(ny*cfg.GridW+nx))
		}
		for range 1 + nc { // the gated prev blob, then the carried strips
			pr.Incoming = append(pr.Incoming, core.ExternalInput)
		}

		tasks = append(tasks, ex, pr)
	}
	rt := core.Task{
		Id:       root,
		Callback: IterRegCB,
		Incoming: make([]core.TaskId, 0, n+1),
		Outgoing: [][]core.TaskId{nil}, // sink: the gate source
	}
	for i := 0; i < n; i++ {
		rt.Incoming = append(rt.Incoming, core.TaskId(n+i))
	}
	rt.Incoming = append(rt.Incoming, core.ExternalInput) // gated prev blob
	tasks = append(tasks, rt)
	return core.NewExplicitGraph(tasks), nil
}

// Iterative unrolls the registration refinement loop: the root blob gates
// every estimate consumer of the next iteration, each extract carries its
// tile forward and each process task the strips it correlates.
func (cfg Config) Iterative(maxIter int) (*core.IterativeGraph, error) {
	body, err := cfg.IterBody()
	if err != nil {
		return nil, err
	}
	n := cfg.cells()
	root := cfg.IterRootId()
	opts := make([]core.IterOption, 0, 4*n+2)
	opts = append(opts, core.MaxIterations(maxIter), core.Gate(root, 0, root, n))
	for i := 0; i < n; i++ {
		x, y := i%cfg.GridW, i/cfg.GridW
		nd := len(cfg.neighborDirs(x, y))
		opts = append(opts,
			core.Gate(root, 0, core.TaskId(n+i), 1+nd),
			core.Carry(core.TaskId(i), 1+nd, core.TaskId(i), 0))
		for c := range cfg.carriedDirs(x, y) {
			opts = append(opts, core.Carry(core.TaskId(n+i), 1+c, core.TaskId(n+i), 2+nd+c))
		}
	}
	return core.Iterate(body, cfg.converged, opts...)
}

// converged stops the loop once the root blob reports zero moved
// estimates.
func (cfg Config) converged(_ int, sinks map[core.TaskId][]core.Payload) (bool, error) {
	ps := sinks[cfg.IterRootId()]
	if len(ps) != 1 || len(ps[0].Data) < iterHdr {
		return false, fmt.Errorf("register: malformed root blob in convergence predicate")
	}
	return binary.LittleEndian.Uint32(ps[0].Data) == 0, nil
}

// seedBlob is the iteration-0 stand-in for the previous root blob: a
// not-converged marker over zeroed estimates.
func (cfg Config) seedBlob() []byte {
	b := make([]byte, iterHdr+52*cfg.cells())
	binary.LittleEndian.PutUint32(b, ^uint32(0))
	return b
}

// IterInitial seeds iteration 0: each extract gets its tile, every gated
// estimate slot gets the seed blob and every carried strip slot an empty
// payload. Tiles must cover the grid, as produced by data.BrainSpecimen.
func (cfg Config) IterInitial(tiles []data.BrainTile) (map[core.TaskId][]core.Payload, error) {
	n := cfg.cells()
	if len(tiles) != n {
		return nil, fmt.Errorf("register: %d tiles for a %dx%d grid", len(tiles), cfg.GridW, cfg.GridH)
	}
	initial := make(map[core.TaskId][]core.Payload, 2*n+1)
	for _, tl := range tiles {
		initial[core.TaskId(tl.GY*cfg.GridW+tl.GX)] = []core.Payload{core.Object(tl.Volume)}
	}
	for i := 0; i < n; i++ {
		empty := make([]core.Payload, len(cfg.carriedDirs(i%cfg.GridW, i/cfg.GridW)))
		initial[core.TaskId(n+i)] = append([]core.Payload{core.Buffer(cfg.seedBlob())}, empty...)
	}
	initial[cfg.IterRootId()] = []core.Payload{core.Buffer(cfg.seedBlob())}
	return initial, nil
}

// RegisterIter binds the dispatching body callback and the synthetic
// decision callback on a controller initialized with the unrolled graph.
func (cfg Config) RegisterIter(c core.CallbackRegistrar, ig *core.IterativeGraph) error {
	if err := c.RegisterCallback(IterRegCB, cfg.IterCallback()); err != nil {
		return err
	}
	return ig.RegisterDecision(c)
}

// IterCallback returns the single body callback, dispatching on the
// unrolled task id: extract below n, process below 2n, root at 2n.
func (cfg Config) IterCallback() core.Callback {
	n := core.TaskId(cfg.cells())
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		switch b := core.BodyId(id); {
		case b < n:
			return cfg.iterExtract(in, id)
		case b < 2*n:
			return cfg.iterProcess(in, id)
		default:
			return cfg.iterRoot(in)
		}
	}
}

// iterExtract mirrors the static extract callback plus the carried tile on
// the last output slot. The strips are loop-invariant and the process tasks
// carry what they read, so from iteration 1 on every strip is empty.
func (cfg Config) iterExtract(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
	tile, err := asField(in[0])
	if err != nil {
		return nil, err
	}
	i := int(core.BodyId(id))
	dirs := cfg.neighborDirs(i%cfg.GridW, i/cfg.GridW)
	out := make([]core.Payload, 2+len(dirs))
	if core.IterOf(id) > 0 {
		dirs = nil // leaves every strip empty
	}
	cfg.strips(tile, dirs, out)
	out[len(out)-1] = core.Object(tile)
	return out, nil
}

// iterProcess correlates over a search window centered at the nominal
// stride whose radius grows by one voxel per iteration, clamped to the
// full jitter window. The estimates move while the expanding window
// uncovers better displacements and reach a fixpoint — the full-window
// optimum the static pipeline computes in one (more expensive) pass —
// once the window covers the correlation peak. The gated previous blob
// sequences iteration k after decision k-1 and carries this cell's
// optimum over the previous window, so from iteration 1 on only the ring
// the window adds is searched, and nothing once the radius is clamped.
// Iteration 0 reads the East and South strips its neighbors cut; it and
// every later iteration pass them, decoded, to the next along the
// carried slots, where iteration k ≥ 1 reads them.
func (cfg Config) iterProcess(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
	i := int(core.BodyId(id)) - cfg.cells()
	x, y := i%cfg.GridW, i/cfg.GridW
	dirs := cfg.neighborDirs(x, y)
	k, j, nd := core.IterOf(id), 2*cfg.Jitter, len(dirs)
	r, inner, strips := min(1+k, j), -1, in[1:]
	var carried Estimate
	if k > 0 {
		var err error
		if carried, err = cfg.blobEstimate(in[1+nd].Data, i); err != nil {
			return nil, err
		}
		if carried.X != x || carried.Y != y {
			return nil, fmt.Errorf("register: carried estimate is cell (%d,%d)'s, want (%d,%d)", carried.X, carried.Y, x, y)
		}
		inner = min(k, j)
		strips, dirs = in[2+nd:], cfg.carriedDirs(x, y)
	}
	return cfg.estimate(in, strips, dirs, x, y, r, inner, carried)
}

// iterRoot aggregates the per-cell estimates into the gate blob and counts
// how many changed against the previous iteration's blob.
func (cfg Config) iterRoot(in []core.Payload) ([]core.Payload, error) {
	n := cfg.cells()
	prev := in[n].Data
	if len(prev) != iterHdr+52*n {
		return nil, fmt.Errorf("register: previous root blob has %d bytes, want %d", len(prev), iterHdr+52*n)
	}
	blob := make([]byte, iterHdr+52*n)
	var changed uint32
	for i := 0; i < n; i++ {
		e := in[i].Data
		if len(e) != 52 {
			return nil, fmt.Errorf("register: estimate %d has %d bytes, want 52", i, len(e))
		}
		copy(blob[iterHdr+52*i:], e)
		if !bytes.Equal(prev[iterHdr+52*i:iterHdr+52*(i+1)], e) {
			changed++
		}
	}
	binary.LittleEndian.PutUint32(blob, changed)
	return []core.Payload{core.Buffer(blob)}, nil
}

// blobEstimate decodes cell i's estimate out of a root blob.
func (cfg Config) blobEstimate(blob []byte, i int) (Estimate, error) {
	n := cfg.cells()
	if len(blob) != iterHdr+52*n {
		return Estimate{}, fmt.Errorf("register: root blob has %d bytes, want %d", len(blob), iterHdr+52*n)
	}
	return DeserializeEstimate(blob[iterHdr+52*i : iterHdr+52*(i+1)])
}

// IterEstimates decodes the converged root blob (the Final sinks of the
// iterative run) into per-cell estimates, ready for Solve.
func (cfg Config) IterEstimates(sinks map[core.TaskId][]core.Payload) ([]Estimate, error) {
	ps := sinks[cfg.IterRootId()]
	if len(ps) != 1 {
		return nil, fmt.Errorf("register: converged sinks carry %d root payloads, want 1", len(ps))
	}
	n := cfg.cells()
	ests := make([]Estimate, n)
	for i := 0; i < n; i++ {
		e, err := cfg.blobEstimate(ps[0].Data, i)
		if err != nil {
			return nil, err
		}
		ests[i] = e
	}
	return ests, nil
}
