package render

import (
	"fmt"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// Config binds the rendering pipeline to a domain: the block decomposition
// of the volume, the camera and the transfer function.
type Config struct {
	Decomp *data.Decomposition
	Camera Camera
	TF     TransferFunction
}

// asImage extracts an image from a payload and checks that it lies inside
// the camera frame: its rectangle sizes the composites it enters.
func (cfg Config) asImage(p core.Payload) (*Image, error) {
	im, ok := p.Object.(*Image)
	if p.Object != nil && !ok {
		return nil, fmt.Errorf("render: payload object is %T, want *Image", p.Object)
	}
	if !ok {
		var err error
		if im, err = DeserializeImage(p.Data); err != nil {
			return nil, err
		}
	}
	if err := cfg.Camera.holds(im); err != nil {
		return nil, err
	}
	return im, nil
}

// composite folds every input image over the first, in input order.
func (cfg Config) composite(in []core.Payload) (*Image, error) {
	acc, err := cfg.asImage(in[0])
	if err != nil {
		return nil, err
	}
	for _, p := range in[1:] {
		im, err := cfg.asImage(p)
		if err != nil {
			return nil, err
		}
		acc = acc.Over(im)
	}
	return acc, nil
}

// asField extracts a field from a payload.
func asField(p core.Payload) (*data.Field, error) {
	if p.Object != nil {
		f, ok := p.Object.(*data.Field)
		if !ok {
			return nil, fmt.Errorf("render: payload object is %T, want *data.Field", p.Object)
		}
		return f, nil
	}
	return data.DeserializeField(p.Data)
}

// leafImage renders the input of leaf task id, which holds block i: a view
// in place, a block in memory or on the wire through RenderBlock. An input
// that is not block i of cfg.Decomp is an error, not a wrong image.
func (cfg Config) leafImage(p core.Payload, id core.TaskId, i int) (*Image, error) {
	if v, ok := p.Object.(*data.View); ok {
		if !v.Is(cfg.Decomp, i) {
			return nil, fmt.Errorf("render: task %d renders block %d but got a view of %v", id, i, v)
		}
		return renderView(cfg.Camera, cfg.TF, v), nil
	}
	blk, err := asField(p)
	if err != nil {
		return nil, err
	}
	if sx, sy, sz := cfg.Decomp.Block(i).Dims(); blk.NX != sx || blk.NY != sy || blk.NZ != sz {
		return nil, fmt.Errorf("render: task %d renders block %d (%dx%dx%d) but got a %dx%dx%d field",
			id, i, sx, sy, sz, blk.NX, blk.NY, blk.NZ)
	}
	return RenderBlock(cfg.Camera, cfg.TF, cfg.Decomp, i, blk), nil
}

// InitialInputs addresses block i of the volume to the leaf task
// leafIds[i] of a reduction or binary-swap dataflow. It copies nothing:
// each payload is a data.View of f that the leaf ray-casts in place, so f
// must not change until the run has finished. Where a payload is
// serialized, its wire form is the extracted block, byte for byte what
// Decomposition.Extract gives.
func (cfg Config) InitialInputs(f *data.Field, leafIds []core.TaskId) (map[core.TaskId][]core.Payload, error) {
	if len(leafIds) != cfg.Decomp.Blocks() {
		return nil, fmt.Errorf("render: %d leaf tasks for %d blocks", len(leafIds), cfg.Decomp.Blocks())
	}
	views, err := cfg.Decomp.Views(f)
	if err != nil {
		return nil, err
	}
	payloads := make([]core.Payload, len(leafIds))
	initial := make(map[core.TaskId][]core.Payload, len(leafIds))
	for i, id := range leafIds {
		payloads[i] = core.Object(&views[i])
		initial[id] = payloads[i : i+1 : i+1]
	}
	return initial, nil
}

// RegisterReduction binds the volume-rendering + reduction-compositing
// callbacks (Listing 1 of the paper: volume_render at the leaves, composite
// at internal nodes, write_image — here: emit the final image — at the
// root) to a controller initialized with the reduction graph. The root
// emits the dense camera frame; every other image carries only its active
// rectangle.
func (cfg Config) RegisterReduction(c core.CallbackRegistrar, g *graphs.Reduction) error {
	if err := cfg.check(g.Leafs()); err != nil {
		return err
	}
	first := g.FirstLeaf()
	render := func(in []core.Payload, id core.TaskId) (*Image, error) {
		return cfg.leafImage(in[0], id, int(id-first))
	}
	emit := func(img *Image, err error) ([]core.Payload, error) {
		if err != nil {
			return nil, err
		}
		return []core.Payload{core.Object(img)}, nil
	}
	leaf := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) { return emit(render(in, id)) }
	mid := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) { return emit(cfg.composite(in)) }
	root := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		var img *Image
		var err error
		if g.Leafs() == 1 {
			// Degenerate single-block graph: the root is the leaf, and its
			// input is the block's field.
			img, err = render(in, id)
		} else {
			img, err = cfg.composite(in)
		}
		if err != nil {
			return nil, err
		}
		return emit(img.window(cfg.Camera.frame()), nil)
	}
	if err := c.RegisterCallback(graphs.ReduceLeafCB, leaf); err != nil {
		return err
	}
	if err := c.RegisterCallback(graphs.ReduceMidCB, mid); err != nil {
		return err
	}
	return c.RegisterCallback(graphs.ReduceRootCB, root)
}

// RegisterBinarySwap binds the volume-rendering + binary-swap-compositing
// callbacks (Fig. 7) to a controller initialized with the binary-swap
// graph. After log2(n) exchange rounds, each final task emits one dense
// tile of the frame. The split is of the frame, not of the image: after
// round r each task keeps the half of its frame region that swapRegion
// assigns it, and the images exchanged are clipped to those halves.
func (cfg Config) RegisterBinarySwap(c core.CallbackRegistrar, g *graphs.BinarySwap) error {
	if err := cfg.check(g.Participants()); err != nil {
		return err
	}

	// keepSend clips an image for the exchange after round r into the half
	// participant index keeps and the half its partner keeps.
	keepSend := func(im *Image, round, index int) []core.Payload {
		keep := im.crop(cfg.Camera.swapRegion(round+1, index))
		send := im.crop(cfg.Camera.swapRegion(round+1, index^1<<round))
		return []core.Payload{core.Object(keep), core.Object(send)}
	}

	leaf := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		_, i := g.RoundOf(id)
		img, err := cfg.leafImage(in[0], id, i)
		if err != nil {
			return nil, err
		}
		if g.Rounds() == 0 {
			return []core.Payload{core.Object(img.window(cfg.Camera.frame()))}, nil
		}
		return keepSend(img, 0, i), nil
	}
	mid := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		r, i := g.RoundOf(id)
		acc, err := cfg.composite(in)
		if err != nil {
			return nil, err
		}
		return keepSend(acc, r, i), nil
	}
	final := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		if len(in) == 1 {
			// Degenerate single-participant graph: render directly.
			return leaf(in, id)
		}
		r, i := g.RoundOf(id)
		acc, err := cfg.composite(in)
		if err != nil {
			return nil, err
		}
		return []core.Payload{core.Object(acc.window(cfg.Camera.swapRegion(r, i)))}, nil
	}
	if err := c.RegisterCallback(graphs.SwapLeafCB, leaf); err != nil {
		return err
	}
	if err := c.RegisterCallback(graphs.SwapMidCB, mid); err != nil {
		return err
	}
	return c.RegisterCallback(graphs.SwapRootCB, final)
}

func (cfg Config) check(leafs int) error {
	if cfg.Decomp == nil {
		return fmt.Errorf("render: Config.Decomp is required")
	}
	if cfg.Decomp.Blocks() != leafs {
		return fmt.Errorf("render: decomposition has %d blocks but dataflow has %d leaves", cfg.Decomp.Blocks(), leafs)
	}
	if cfg.Camera.Width < 1 || cfg.Camera.Height < 1 {
		return fmt.Errorf("render: camera dimensions %dx%d invalid", cfg.Camera.Width, cfg.Camera.Height)
	}
	return nil
}
