package mergetree

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/babelflow/babelflow-go/internal/data"
)

// lineField builds a 1-D field with the given values.
func lineField(vals ...float32) *data.Field {
	f := data.NewField(len(vals), 1, 1)
	copy(f.Values, vals)
	return f
}

func TestFromFieldSimpleRidge(t *testing.T) {
	// Two maxima (values 5 and 4) separated by a valley of 1:
	// 5 3 1 2 4  -> merge tree: leaves 5 and 4 joining at 1.
	f := lineField(5, 3, 1, 2, 4)
	tr := FromField(f, 0, 0, 0, 5, 1, -100)
	if tr.Len() != 5 {
		t.Fatalf("augmented tree has %d nodes, want 5", tr.Len())
	}
	crit := tr.Reduce(nil)
	// Criticals: maxima at ids 0 and 4, merge point at id 2 (value 1, the
	// global root).
	if crit.Len() != 3 {
		t.Fatalf("critical tree has %d nodes: %v", crit.Len(), crit.Ids())
	}
	if _, ok := crit.Value(0); !ok {
		t.Error("maximum 0 missing")
	}
	if _, ok := crit.Value(4); !ok {
		t.Error("maximum 4 missing")
	}
	if crit.Parent(0) != 2 || crit.Parent(4) != 2 {
		t.Errorf("parents: %d, %d; want both 2", crit.Parent(0), crit.Parent(4))
	}
	if crit.Parent(2) != NoNode {
		t.Error("root should have no parent")
	}
}

func TestFromFieldThreshold(t *testing.T) {
	f := lineField(5, 3, 1, 2, 4)
	tr := FromField(f, 0, 0, 0, 5, 1, 2)
	// Only vertices >= 2 enter: ids 0,1,3,4; two components.
	if tr.Len() != 4 {
		t.Fatalf("tree has %d nodes, want 4", tr.Len())
	}
	labels := tr.Segment(2)
	if labels[0] != 0 || labels[1] != 0 {
		t.Errorf("left component labels: %d, %d", labels[0], labels[1])
	}
	if labels[3] != 4 || labels[4] != 4 {
		t.Errorf("right component labels: %d, %d", labels[3], labels[4])
	}
}

func TestSegmentCountsFeatures(t *testing.T) {
	f := lineField(5, 1, 4, 1, 3, 1, 2)
	tr := FromField(f, 0, 0, 0, 7, 1, -100)
	if got := len(tr.Features(2)); got != 4 {
		t.Errorf("features at 2: %d, want 4 (isolated maxima 5,4,3,2)", got)
	}
	if got := len(tr.Features(3)); got != 3 {
		t.Errorf("features at 3: %d, want 3", got)
	}
	if got := len(tr.Features(0)); got != 1 {
		t.Errorf("features at 0: %d, want 1 (everything connected)", got)
	}
	if got := len(tr.Features(10)); got != 0 {
		t.Errorf("features at 10: %d, want 0", got)
	}
}

func TestMergeEqualsGlobalTree(t *testing.T) {
	// Split a 1-D field into two overlapping halves (shared vertex 4) and
	// verify the merged tree equals the tree of the whole field.
	f := lineField(5, 3, 1, 2, 4, 6, 0, 7)
	left := f.SubField(0, 0, 0, 5, 1, 1)
	right := f.SubField(4, 0, 0, 4, 1, 1)
	tl := FromField(left, 0, 0, 0, 8, 1, -100)
	tr := FromField(right, 4, 0, 0, 8, 1, -100)
	merged := Merge(tl, tr)
	global := FromField(f, 0, 0, 0, 8, 1, -100)
	if !merged.Reduce(nil).Equal(global.Reduce(nil)) {
		t.Error("merged critical tree differs from global critical tree")
	}
	// Segmentations agree too.
	lm := merged.Segment(2)
	lg := global.Segment(2)
	if len(lm) != len(lg) {
		t.Fatalf("segmentation sizes differ: %d vs %d", len(lm), len(lg))
	}
	for id, r := range lg {
		if lm[id] != r {
			t.Errorf("vertex %d: merged label %d, global %d", id, lm[id], r)
		}
	}
}

func TestMerge3DBlocksEqualsGlobal(t *testing.T) {
	f := data.SyntheticHCCI(8, 8, 8, 5, 123)
	d, _ := data.NewDecomposition(8, 8, 8, 2, 2, 2)
	var trees []*Tree
	for i := 0; i < d.Blocks(); i++ {
		blk, _ := d.Extract(f, i)
		b := d.Block(i)
		trees = append(trees, FromField(blk, b.X0, b.Y0, b.Z0, 8, 8, 0.1))
	}
	merged := Merge(trees...)
	global := FromField(f, 0, 0, 0, 8, 8, 0.1)
	if !merged.Reduce(nil).Equal(global.Reduce(nil)) {
		t.Error("merged 3-D critical tree differs from global")
	}
}

func TestMergeWithReducedBoundaryTrees(t *testing.T) {
	// The realistic path: blocks exchange *reduced* boundary trees; the
	// merged tree's criticals must still match the global tree's.
	f := data.SyntheticHCCI(12, 12, 6, 7, 77)
	d, _ := data.NewDecomposition(12, 12, 6, 2, 2, 1)
	keep := BoundaryKeeper(d)
	var trees []*Tree
	for i := 0; i < d.Blocks(); i++ {
		blk, _ := d.Extract(f, i)
		b := d.Block(i)
		local := FromField(blk, b.X0, b.Y0, b.Z0, 12, 12, 0.05)
		trees = append(trees, local.Reduce(keep))
	}
	merged := Merge(trees...)
	global := FromField(f, 0, 0, 0, 12, 12, 0.05)
	// Compare criticals only: the boundary trees dropped regular interior
	// vertices, but criticals must survive exactly.
	if !merged.Reduce(nil).Equal(global.Reduce(nil)) {
		t.Error("boundary-reduced merge lost critical structure")
	}
}

func TestReduceKeepsRequestedVertices(t *testing.T) {
	f := lineField(5, 4, 3, 2, 1)
	tr := FromField(f, 0, 0, 0, 5, 1, -100)
	red := tr.Reduce(func(id uint64) bool { return id == 2 })
	// Monotone ramp: criticals are max (0) and root (4); id 2 kept.
	if red.Len() != 3 {
		t.Fatalf("reduced tree nodes: %v", red.Ids())
	}
	if red.Parent(0) != 2 || red.Parent(2) != 4 {
		t.Errorf("contracted arcs wrong: 0->%d, 2->%d", red.Parent(0), red.Parent(2))
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	f := data.SyntheticHCCI(6, 6, 6, 3, 5)
	tr := FromField(f, 0, 0, 0, 6, 6, 0.1)
	b := tr.Serialize()
	got, err := Deserialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(got) {
		t.Error("round trip changed the tree")
	}
	// Determinism: serializing twice yields identical bytes.
	b2 := tr.Serialize()
	if string(b) != string(b2) {
		t.Error("Serialize is not deterministic")
	}
}

// TestSerializeGolden pins the tree and segmentation encodings byte for
// byte: ids above 32 bits, a root (NoNode parent) and a negative value.
func TestSerializeGolden(t *testing.T) {
	tr := treeOf(map[uint64]float32{7: 1.5, 1 << 40: -0.25, 2: 3}, map[uint64]uint64{2: 7, 1 << 40: 7})
	const wantTree = "0300000000000000020000000000000000004040070000000000000007000000000000000000c03fffffffffffffffff0000000000010000000080be0700000000000000"
	if got := hex.EncodeToString(tr.Serialize()); got != wantTree {
		t.Fatalf("Tree.Serialize = %s, want %s", got, wantTree)
	}
	b, _ := hex.DecodeString(wantTree)
	if got, err := Deserialize(b); err != nil || !tr.Equal(got) {
		t.Fatalf("golden tree bytes decode to %v, %v", got, err)
	}

	seg := Segmentation{Block: 3, Labels: map[uint64]uint64{5: 9, 2: 9, 1 << 40: 7}}
	const wantSeg = "03000000000000000300000000000000020000000000000009000000000000000500000000000000090000000000000000000000000100000700000000000000"
	if got := hex.EncodeToString(seg.Serialize()); got != wantSeg {
		t.Fatalf("Segmentation.Serialize = %s, want %s", got, wantSeg)
	}
	b, _ = hex.DecodeString(wantSeg)
	if got, err := DeserializeSegmentation(b); err != nil || !reflect.DeepEqual(seg, got) {
		t.Fatalf("golden segmentation bytes decode to %v, %v", got, err)
	}
}

func TestDeserializeErrors(t *testing.T) {
	if _, err := Deserialize([]byte{1}); err == nil {
		t.Error("short buffer should fail")
	}
	b := treeOf(map[uint64]float32{3: 1, 5: 2}, map[uint64]uint64{5: 3}).Serialize()
	if _, err := Deserialize(b[:len(b)-1]); err == nil {
		t.Error("truncated buffer should fail")
	}
	// A node count whose 20-byte records wrap the buffer size.
	wrapped := binary.LittleEndian.AppendUint64(nil, 1<<62)
	if _, err := Deserialize(wrapped); err == nil {
		t.Error("node count past the buffer should fail")
	}
	// Records: node 3 at bytes 8..28, node 5 at 28..48 with its parent at 40.
	swapped := slices.Clone(b)
	copy(swapped[8:16], b[28:36])
	copy(swapped[28:36], b[8:16])
	if _, err := Deserialize(swapped); err == nil {
		t.Error("descending ids should fail")
	}
	orphan := slices.Clone(b)
	binary.LittleEndian.PutUint64(orphan[40:], 4)
	if _, err := Deserialize(orphan); err == nil {
		t.Error("a parent that is not a node should fail")
	}
}

// FuzzTreeDecode drives the tree decoder with arbitrary bytes: it must
// never panic, and a buffer it accepts must re-encode to the same bytes.
func FuzzTreeDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(NewTree().Serialize())
	f.Add(treeOf(map[uint64]float32{7: 1.5, 1 << 40: -0.25, 2: 3}, map[uint64]uint64{2: 7, 1 << 40: 7}).Serialize())
	f.Add(FromField(data.SyntheticHCCI(4, 3, 2, 2, 9), 0, 0, 0, 4, 3, 0.1).Serialize())
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Deserialize(b)
		if err != nil {
			return
		}
		if got := tr.Serialize(); !bytes.Equal(got, b) {
			t.Fatalf("decoded tree re-encodes to %x, not %x", got, b)
		}
	})
}

func TestVertexIdRoundTrip(t *testing.T) {
	check := func(x8, y8, z8 uint8) bool {
		x, y, z := int(x8%32), int(y8%16), int(z8%8)
		id := VertexId(x, y, z, 32, 16)
		gx, gy, gz := VertexCoords(id, 32, 16)
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundaryKeeper(t *testing.T) {
	d, _ := data.NewDecomposition(8, 8, 8, 2, 2, 2)
	keep := BoundaryKeeper(d)
	if !keep(VertexId(4, 1, 1, 8, 8)) {
		t.Error("x=4 is an internal face plane")
	}
	if keep(VertexId(0, 1, 1, 8, 8)) {
		t.Error("x=0 is the domain boundary, not internal")
	}
	if keep(VertexId(3, 3, 3, 8, 8)) {
		t.Error("interior vertex kept")
	}
	if !keep(VertexId(1, 4, 2, 8, 8)) {
		t.Error("y=4 is an internal face plane")
	}
}

// Property: merging a random field split at a random plane always
// reproduces the global critical tree.
func TestMergeSplitProperty(t *testing.T) {
	check := func(seed uint16, cut8 uint8) bool {
		n := 10
		cut := 1 + int(cut8)%(n-2)
		f := data.SyntheticHCCI(n, 4, 4, 4, uint64(seed))
		left := f.SubField(0, 0, 0, cut+1, 4, 4)
		right := f.SubField(cut, 0, 0, n-cut, 4, 4)
		tl := FromField(left, 0, 0, 0, n, 4, 0.1)
		tr := FromField(right, cut, 0, 0, n, 4, 0.1)
		global := FromField(f, 0, 0, 0, n, 4, 0.1)
		return Merge(tl, tr).Reduce(nil).Equal(global.Reduce(nil))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
