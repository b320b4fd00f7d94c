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

// InitialInputs extracts every block of the field (with ghost layers) and
// addresses it to the corresponding leaf task.
func (cfg Config) InitialInputs(f *data.Field, g *Graph) (map[core.TaskId][]core.Payload, error) {
	initial := make(map[core.TaskId][]core.Payload, g.Leafs())
	for i := 0; i < g.Leafs(); i++ {
		blk, err := cfg.Decomp.Extract(f, i)
		if err != nil {
			return nil, err
		}
		initial[g.LeafTask(i)] = []core.Payload{core.Object(blk)}
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
		blk, err := asField(in[0])
		if err != nil {
			return nil, err
		}
		b := cfg.Decomp.Block(i)
		local := FromField(blk, b.X0, b.Y0, b.Z0, cfg.Decomp.NX, cfg.Decomp.NY, cfg.Threshold)
		boundary := local.Reduce(keep)
		return []core.Payload{core.Object(boundary), core.Object(local)}, nil
	}
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
		labels := tree.labels(cfg.Threshold)
		b := cfg.Decomp.Block(i)
		n := 0
		for j, r := range labels {
			x, y, z := VertexCoords(tree.ids[j], cfg.Decomp.NX, cfg.Decomp.NY)
			if r >= 0 && x >= b.X0 && x < b.X1 && y >= b.Y0 && y < b.Y1 && z >= b.Z0 && z < b.Z1 {
				n++
			} else {
				labels[j] = -1
			}
		}
		// Tree ids ascend, so the pairs come out in encoding order.
		buf := segmentationBuffer(i, n)
		for j, r := range labels {
			if r >= 0 {
				buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, tree.ids[j]), tree.ids[r])
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
