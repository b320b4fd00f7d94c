package mergetree

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
)

// Config binds the merge-tree dataflow to a concrete domain: the block
// decomposition of the field and the feature threshold. Trees are computed
// over vertices with value >= Threshold and features are the connected
// components of that superlevel set.
type Config struct {
	Decomp    *data.Decomposition
	Threshold float32
}

// asTree extracts a tree from a payload: the in-memory object when present
// (in-memory message), otherwise the serialized form.
func asTree(p core.Payload) (*Tree, error) {
	if p.Object != nil {
		t, ok := p.Object.(*Tree)
		if !ok {
			return nil, fmt.Errorf("mergetree: payload object is %T, want *Tree", p.Object)
		}
		return t, nil
	}
	return Deserialize(p.Data)
}

// asField extracts a field from a payload.
func asField(p core.Payload) (*data.Field, error) {
	if p.Object != nil {
		f, ok := p.Object.(*data.Field)
		if !ok {
			return nil, fmt.Errorf("mergetree: payload object is %T, want *data.Field", p.Object)
		}
		return f, nil
	}
	return data.DeserializeField(p.Data)
}

// Register binds all five merge-tree callbacks to a controller that has
// been initialized with the given graph.
func (cfg Config) Register(c core.CallbackRegistrar, g *Graph) error {
	if cfg.Decomp == nil {
		return fmt.Errorf("mergetree: Config.Decomp is required")
	}
	if cfg.Decomp.Blocks() != g.Leafs() {
		return fmt.Errorf("mergetree: decomposition has %d blocks but graph has %d leaves", cfg.Decomp.Blocks(), g.Leafs())
	}
	reg := map[core.CallbackId]core.Callback{
		CBLocal:        cfg.localCallback(g),
		CBJoin:         cfg.joinCallback(g),
		CBRelay:        relayCallback,
		CBCorrection:   correctionCallback,
		CBSegmentation: cfg.segmentationCallback(g),
	}
	for cb, fn := range reg {
		if err := c.RegisterCallback(cb, fn); err != nil {
			return err
		}
	}
	return nil
}

// InitialInputs addresses block i of the field, ghost layer included, to
// the leaf task g.LeafTask(i). It copies nothing: each payload is a
// data.View of f that the leaf sweeps in place, so f must not change until
// the run has finished. Where a payload is serialized, its wire form is
// the extracted block, byte for byte what Decomposition.Extract gives.
func (cfg Config) InitialInputs(f *data.Field, g *Graph) (map[core.TaskId][]core.Payload, error) {
	if g.Leafs() != cfg.Decomp.Blocks() {
		return nil, fmt.Errorf("mergetree: %d leaf tasks for %d blocks", g.Leafs(), cfg.Decomp.Blocks())
	}
	views, err := cfg.Decomp.Views(f)
	if err != nil {
		return nil, err
	}
	payloads := make([]core.Payload, len(views))
	initial := make(map[core.TaskId][]core.Payload, len(views))
	for i := range views {
		payloads[i] = core.Object(&views[i])
		initial[g.LeafTask(i)] = payloads[i : i+1 : i+1]
	}
	return initial, nil
}

// localCallback computes the augmented local tree of a block and emits the
// boundary tree (slot 0, to the join) and the local tree (slot 1, to the
// first correction).
func (cfg Config) localCallback(g *Graph) core.Callback {
	keep := BoundaryKeeper(cfg.Decomp)
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		_, i := split(id)
		local, err := cfg.localTree(in[0], id, i)
		if err != nil {
			return nil, err
		}
		return []core.Payload{core.Object(local.Reduce(keep)), core.Object(local)}, nil
	}
}

// localTree computes the local tree of leaf task id, which holds block i:
// from a view in place, or from a block in memory or on the wire. An input
// that is not block i of cfg.Decomp is an error, not a wrong tree.
func (cfg Config) localTree(p core.Payload, id core.TaskId, i int) (*Tree, error) {
	d, b := cfg.Decomp, cfg.Decomp.Block(i)
	if v, ok := p.Object.(*data.View); ok {
		if !v.Is(d, i) {
			return nil, fmt.Errorf("mergetree: task %d sweeps block %d but got a view of %v", id, i, v)
		}
		vals, origin, row, plane := v.Window()
		return sweep(vals, origin, row, plane, b, d.NX, d.NY, cfg.Threshold), nil
	}
	blk, err := asField(p)
	if err != nil {
		return nil, err
	}
	if sx, sy, sz := b.Dims(); blk.NX != sx || blk.NY != sy || blk.NZ != sz {
		return nil, fmt.Errorf("mergetree: task %d sweeps block %d (%dx%dx%d) but got a %dx%dx%d field",
			id, i, sx, sy, sz, blk.NX, blk.NY, blk.NZ)
	}
	return FromField(blk, b.X0, b.Y0, b.Z0, d.NX, d.NY, cfg.Threshold), nil
}

// joinCallback merges the incoming boundary trees, reduces the result to
// criticals plus decomposition-face vertices, and forwards it: non-root
// joins emit [parent, broadcast], the root emits [broadcast] only.
func (cfg Config) joinCallback(g *Graph) core.Callback {
	keep := BoundaryKeeper(cfg.Decomp)
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		_, m := split(id)
		trees := make([]*Tree, len(in))
		for i, p := range in {
			t, err := asTree(p)
			if err != nil {
				return nil, err
			}
			trees[i] = t
		}
		joined := Merge(trees...).Reduce(keep)
		if m == 0 {
			return []core.Payload{core.Object(joined)}, nil
		}
		return []core.Payload{core.Object(joined), core.Object(joined)}, nil
	}
}

// relayCallback forwards the augmented boundary tree unchanged down the
// broadcast overlay, decoded once here so that the consumers on its rank
// share the tree; one whose consumers are all remote decodes and encodes.
func relayCallback(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
	t, err := asTree(in[0])
	if err != nil {
		return nil, err
	}
	return []core.Payload{core.Object(t)}, nil
}

// correctionCallback merges the augmented boundary tree of one join level
// into the block's current local tree, refining its global connectivity.
func correctionCallback(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
	prev, err := asTree(in[0])
	if err != nil {
		return nil, err
	}
	aug, err := asTree(in[1])
	if err != nil {
		return nil, err
	}
	return []core.Payload{core.Object(Merge(prev, aug))}, nil
}

// segmentationCallback computes the block's final labels: every block
// vertex above the threshold is labeled with the id of its global
// feature's maximum. The output is the serialized, deterministic per-block
// segmentation.
func (cfg Config) segmentationCallback(g *Graph) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		_, i := split(id)
		tree, err := asTree(in[0])
		if err != nil {
			return nil, err
		}
		w := works.Get().(*work)
		defer works.Put(w)
		labels := tree.labels(cfg.Threshold, w)
		// The block's ids are its (z, y) rows, each the range
		// [VertexId(X0, y, z), +X1-X0); both they and the tree's ids
		// ascend, so one cursor drops every node outside the block.
		b, ids := cfg.Decomp.Block(i), tree.ids
		n, j := 0, 0
		for z := b.Z0; z < b.Z1; z++ {
			for y := b.Y0; y < b.Y1; y++ {
				lo := VertexId(b.X0, y, z, cfg.Decomp.NX, cfg.Decomp.NY)
				for ; j < len(ids) && ids[j] < lo; j++ {
					labels[j] = -1
				}
				for hi := lo + uint64(b.X1-b.X0); j < len(ids) && ids[j] < hi; j++ {
					if labels[j] >= 0 {
						n++
					}
				}
			}
		}
		for ; j < len(ids); j++ {
			labels[j] = -1
		}
		// Tree ids ascend, so the pairs come out in encoding order.
		buf := segmentationBuffer(i, n)
		for j, r := range labels {
			if r >= 0 {
				buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, ids[j]), ids[r])
			}
		}
		return []core.Payload{core.Buffer(buf)}, nil
	}
}

// Segmentation is the per-block result of the dataflow: the feature label
// (id of the feature's maximum vertex) of every block vertex above the
// threshold.
type Segmentation struct {
	Block  int
	Labels map[uint64]uint64
}

// Serialize encodes the segmentation deterministically: block index, count,
// then ascending (vertex, label) pairs.
func (s Segmentation) Serialize() []byte {
	ids := make([]uint64, 0, len(s.Labels))
	for id := range s.Labels {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf := segmentationBuffer(s.Block, len(ids))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, id), s.Labels[id])
	}
	return buf
}

// segmentationBuffer returns a segmentation encoding with its header
// written and room for n (vertex, label) pairs, which the caller appends in
// ascending vertex order.
func segmentationBuffer(block, n int) []byte {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 16+16*n), uint64(block))
	return binary.LittleEndian.AppendUint64(buf, uint64(n))
}

// DeserializeSegmentation decodes a serialized segmentation.
func DeserializeSegmentation(b []byte) (Segmentation, error) {
	if len(b) < 16 {
		return Segmentation{}, fmt.Errorf("mergetree: segmentation buffer too short")
	}
	le := binary.LittleEndian
	blk := int(le.Uint64(b[0:]))
	n := int(le.Uint64(b[8:]))
	if len(b) != 16+16*n {
		return Segmentation{}, fmt.Errorf("mergetree: segmentation buffer size %d does not match %d entries", len(b), n)
	}
	s := Segmentation{Block: blk, Labels: make(map[uint64]uint64, n)}
	off := 16
	for i := 0; i < n; i++ {
		s.Labels[le.Uint64(b[off:])] = le.Uint64(b[off+8:])
		off += 16
	}
	return s, nil
}

// SerialSegmentation computes the reference result without the dataflow:
// the global merge tree of the whole field and its segmentation at the
// threshold. Tests compare every controller's distributed output against
// it.
func SerialSegmentation(f *data.Field, threshold float32) map[uint64]uint64 {
	tree := FromField(f, 0, 0, 0, f.NX, f.NY, threshold)
	return tree.Segment(threshold)
}
