package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

func u64(v uint64) core.Payload {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return core.Buffer(b)
}

func getU64(p core.Payload) uint64 { return binary.LittleEndian.Uint64(p.Data) }

func sumCB(slots int) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		var sum uint64
		for _, p := range in {
			sum += getU64(p)
		}
		out := make([]core.Payload, slots)
		for i := range out {
			out[i] = u64(sum)
		}
		return out, nil
	}
}

// runBoth executes the same graph+callbacks on the serial reference and an
// MPI controller and compares the sink outputs byte for byte.
func runBoth(t *testing.T, g core.TaskGraph, m core.TaskMap, reg map[core.CallbackId]core.Callback, initial map[core.TaskId][]core.Payload, opts ...Option) map[core.TaskId][]core.Payload {
	t.Helper()
	ser := core.NewSerial()
	if err := ser.Initialize(g, nil); err != nil {
		t.Fatal(err)
	}
	for cb, fn := range reg {
		ser.RegisterCallback(cb, fn)
	}
	want, err := ser.Run(cloneInitial(initial))
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	mc := New(opts...)
	if err := mc.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	for cb, fn := range reg {
		mc.RegisterCallback(cb, fn)
	}
	got, err := mc.Run(cloneInitial(initial))
	if err != nil {
		t.Fatalf("mpi run: %v", err)
	}
	check.Sinks(t, want, got)
	return got
}

func cloneInitial(in map[core.TaskId][]core.Payload) map[core.TaskId][]core.Payload {
	out := make(map[core.TaskId][]core.Payload, len(in))
	for id, ps := range in {
		cp := make([]core.Payload, len(ps))
		for i, p := range ps {
			c, _ := p.CloneForWire()
			cp[i] = c
		}
		out[id] = cp
	}
	return out
}

func reductionInputs(g *graphs.Reduction) map[core.TaskId][]core.Payload {
	initial := make(map[core.TaskId][]core.Payload)
	for i, id := range g.LeafIds() {
		initial[id] = []core.Payload{u64(uint64(i)*7 + 1)}
	}
	return initial
}

func TestMPIMatchesSerialOnReduction(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	reg := map[core.CallbackId]core.Callback{
		graphs.ReduceLeafCB: sumCB(1),
		graphs.ReduceMidCB:  sumCB(1),
		graphs.ReduceRootCB: sumCB(1),
	}
	// Over-decomposition sweep: 1 rank to more ranks than tasks.
	for _, shards := range []int{1, 2, 3, 7, 16, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := core.NewModuloMap(shards, g.Size())
			runBoth(t, g, m, reg, reductionInputs(g))
		})
	}
}

func TestMPIMatchesSerialOnBinarySwap(t *testing.T) {
	g, _ := graphs.NewBinarySwap(8)
	// Model image halves as value pairs: keep low, send high.
	split := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		var sum uint64
		for _, p := range in {
			sum += getU64(p)
		}
		return []core.Payload{u64(sum), u64(sum + 1)}, nil
	}
	reg := map[core.CallbackId]core.Callback{
		graphs.SwapLeafCB: split,
		graphs.SwapMidCB:  split,
		graphs.SwapRootCB: sumCB(1),
	}
	initial := make(map[core.TaskId][]core.Payload)
	for i, id := range g.LeafIds() {
		initial[id] = []core.Payload{u64(uint64(i))}
	}
	for _, shards := range []int{1, 3, 8} {
		m := core.NewModuloMap(shards, g.Size())
		runBoth(t, g, m, reg, initial)
	}
}

func TestMPIMatchesSerialOnKWayMerge(t *testing.T) {
	g, _ := graphs.NewKWayMerge(8, 2)
	reg := make(map[core.CallbackId]core.Callback)
	for _, cb := range g.Callbacks() {
		reg[cb] = sumCB(1)
	}
	initial := make(map[core.TaskId][]core.Payload)
	for i, id := range g.UpLeafIds() {
		initial[id] = []core.Payload{u64(uint64(i + 1))}
	}
	for _, shards := range []int{1, 2, 5, 16} {
		m := core.NewModuloMap(shards, g.Size())
		runBoth(t, g, m, reg, initial)
	}
}

func TestMPIMatchesSerialOnNeighbor(t *testing.T) {
	g, _ := graphs.NewNeighbor2D(4, 3)
	extract := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		task, _ := g.Task(id)
		v := getU64(in[0])
		out := make([]core.Payload, len(task.Outgoing))
		for i := range out {
			out[i] = u64(v + uint64(i))
		}
		return out, nil
	}
	reg := map[core.CallbackId]core.Callback{
		graphs.NeighborExtractCB: extract,
		graphs.NeighborProcessCB: sumCB(1),
	}
	initial := make(map[core.TaskId][]core.Payload)
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			initial[g.ExtractId(x, y)] = []core.Payload{u64(uint64(y*4 + x))}
		}
	}
	for _, shards := range []int{1, 4, 12} {
		m := core.NewModuloMap(shards, g.Size())
		runBoth(t, g, m, reg, initial)
	}
}

func TestMPIInlineAndBlockModes(t *testing.T) {
	g, _ := graphs.NewReduction(8, 8) // flat: leaves -> root, no cross sends
	reg := map[core.CallbackId]core.Callback{
		graphs.ReduceLeafCB: sumCB(1),
		graphs.ReduceMidCB:  sumCB(1),
		graphs.ReduceRootCB: sumCB(1),
	}
	initial := reductionInputs(g)
	m := core.NewModuloMap(3, g.Size())
	runBoth(t, g, m, reg, initial, WithInline(true))
	runBoth(t, g, m, reg, initial, WithAlwaysSerialize(true))
	runBoth(t, g, m, reg, initial, WithWorkers(1))
}

func TestMPIObserverSeesEachTaskOnce(t *testing.T) {
	g, _ := graphs.NewReduction(16, 4)
	log := core.NewExecutionLog()
	reg := map[core.CallbackId]core.Callback{
		graphs.ReduceLeafCB: sumCB(1),
		graphs.ReduceMidCB:  sumCB(1),
		graphs.ReduceRootCB: sumCB(1),
	}
	m := core.NewModuloMap(4, g.Size())
	runBoth(t, g, m, reg, reductionInputs(g), WithObserver(log))
	if log.Len() != g.Size() {
		t.Fatalf("observer saw %d executions, want %d", log.Len(), g.Size())
	}
	for _, id := range g.TaskIds() {
		if log.Executions(id) != 1 {
			t.Errorf("task %d executed %d times", id, log.Executions(id))
		}
		if log.Shards[id] != m.Shard(id) {
			t.Errorf("task %d ran on shard %d, mapped to %d", id, log.Shards[id], m.Shard(id))
		}
	}
}

func TestMPIStatsCountOnlyInterRankTraffic(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	reg := map[core.CallbackId]core.Callback{
		graphs.ReduceLeafCB: sumCB(1),
		graphs.ReduceMidCB:  sumCB(1),
		graphs.ReduceRootCB: sumCB(1),
	}
	// Single rank: everything is local, zero fabric traffic.
	mc := New()
	if err := mc.Initialize(g, core.NewModuloMap(1, g.Size())); err != nil {
		t.Fatal(err)
	}
	for cb, fn := range reg {
		mc.RegisterCallback(cb, fn)
	}
	if _, err := mc.Run(reductionInputs(g)); err != nil {
		t.Fatal(err)
	}
	if s := mc.Stats(); s.Messages != 0 {
		t.Errorf("single-rank run produced %d fabric messages", s.Messages)
	}

	// Modulo placement of the 7-task binary tree separates parents from
	// children, so messages must flow.
	mc2 := New()
	mc2.Initialize(g, core.NewModuloMap(2, g.Size()))
	for cb, fn := range reg {
		mc2.RegisterCallback(cb, fn)
	}
	if _, err := mc2.Run(reductionInputs(g)); err != nil {
		t.Fatal(err)
	}
	if s := mc2.Stats(); s.Messages == 0 || s.Bytes == 0 {
		t.Errorf("two-rank run reported no traffic: %+v", s)
	}
}

func TestMPIInMemoryMessagePassesPointer(t *testing.T) {
	// On a single rank with one consumer, the object must arrive without
	// serialization.
	g := core.NewExplicitGraph([]core.Task{
		{Id: 0, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{1}}},
		{Id: 1, Callback: 1, Incoming: []core.TaskId{0}, Outgoing: [][]core.TaskId{{}}},
	})
	type opaque struct{ v int } // deliberately not Serializable
	mc := New()
	if err := mc.Initialize(g, core.NewModuloMap(1, 2)); err != nil {
		t.Fatal(err)
	}
	obj := &opaque{v: 17}
	mc.RegisterCallback(0, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		return []core.Payload{core.Object(obj)}, nil
	})
	var got *opaque
	mc.RegisterCallback(1, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		got, _ = in[0].Object.(*opaque)
		return []core.Payload{core.Buffer([]byte{1})}, nil
	})
	if _, err := mc.Run(map[core.TaskId][]core.Payload{0: {core.Buffer(nil)}}); err != nil {
		t.Fatal(err)
	}
	if got != obj {
		t.Error("in-memory message did not pass the object pointer")
	}
}

func TestMPICrossRankOpaqueObjectFails(t *testing.T) {
	// The same opaque object crossing ranks must fail serialization.
	g := core.NewExplicitGraph([]core.Task{
		{Id: 0, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{1}}},
		{Id: 1, Callback: 1, Incoming: []core.TaskId{0}, Outgoing: [][]core.TaskId{{}}},
	})
	mc := New()
	mc.Initialize(g, core.NewModuloMap(2, 2))
	mc.RegisterCallback(0, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		return []core.Payload{core.Object(struct{ x int }{1})}, nil
	})
	mc.RegisterCallback(1, sumCB(1))
	if _, err := mc.Run(map[core.TaskId][]core.Payload{0: {core.Buffer(nil)}}); !errors.Is(err, core.ErrNotSerializable) {
		t.Errorf("cross-rank opaque payload: err = %v", err)
	}
}

func TestMPICallbackErrorPropagates(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	boom := errors.New("boom")
	mc := New()
	mc.Initialize(g, core.NewModuloMap(4, g.Size()))
	mc.RegisterCallback(graphs.ReduceLeafCB, sumCB(1))
	mc.RegisterCallback(graphs.ReduceMidCB, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		return nil, boom
	})
	mc.RegisterCallback(graphs.ReduceRootCB, sumCB(1))
	if _, err := mc.Run(reductionInputs(g)); !errors.Is(err, boom) {
		t.Errorf("Run = %v, want boom", err)
	}
}

func TestMPIInitializeErrors(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	mc := New()
	if err := mc.Initialize(nil, core.NewModuloMap(1, 1)); err == nil {
		t.Error("nil graph should fail")
	}
	if err := mc.Initialize(g, nil); err == nil {
		t.Error("nil task map should fail (MPI requires one)")
	}
	if err := mc.Initialize(g, core.NewModuloMap(2, 3)); err == nil {
		t.Error("incomplete task map should fail")
	}
	if err := mc.RegisterCallback(0, sumCB(1)); !errors.Is(err, core.ErrNotInitialized) {
		t.Errorf("RegisterCallback before init = %v", err)
	}
	if _, err := mc.Run(nil); !errors.Is(err, core.ErrNotInitialized) {
		t.Errorf("Run before init = %v", err)
	}
}

func TestMPIMissingCallback(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	mc := New()
	mc.Initialize(g, core.NewModuloMap(2, g.Size()))
	mc.RegisterCallback(graphs.ReduceLeafCB, sumCB(1))
	if _, err := mc.Run(reductionInputs(g)); !errors.Is(err, core.ErrUnregisteredCallback) {
		t.Errorf("Run = %v", err)
	}
}

func TestMPIWrongOutputArity(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	mc := New()
	mc.Initialize(g, core.NewModuloMap(2, g.Size()))
	mc.RegisterCallback(graphs.ReduceLeafCB, sumCB(2)) // leaves have 1 slot
	mc.RegisterCallback(graphs.ReduceMidCB, sumCB(1))
	mc.RegisterCallback(graphs.ReduceRootCB, sumCB(1))
	if _, err := mc.Run(reductionInputs(g)); err == nil {
		t.Error("wrong output arity should fail")
	}
}

func TestMPIRecoversCallbackPanic(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	mc := New()
	mc.Initialize(g, core.NewModuloMap(4, g.Size()))
	mc.RegisterCallback(graphs.ReduceLeafCB, sumCB(1))
	mc.RegisterCallback(graphs.ReduceMidCB, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		panic("worker panic")
	})
	mc.RegisterCallback(graphs.ReduceRootCB, sumCB(1))
	_, err := mc.Run(reductionInputs(g))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("Run = %v, want panic converted to error", err)
	}
}
