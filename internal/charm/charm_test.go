package charm

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

func runBoth(t *testing.T, g core.TaskGraph, reg map[core.CallbackId]core.Callback, initial map[core.TaskId][]core.Payload, opt Options) *Controller {
	t.Helper()
	ser := core.NewSerial()
	if err := ser.Initialize(g, nil); err != nil {
		t.Fatal(err)
	}
	for cb, fn := range reg {
		ser.RegisterCallback(cb, fn)
	}
	want, err := ser.Run(initial)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}

	cc := New(opt)
	if err := cc.Initialize(g, nil); err != nil {
		t.Fatal(err)
	}
	for cb, fn := range reg {
		cc.RegisterCallback(cb, fn)
	}
	got, err := cc.Run(initial)
	if err != nil {
		t.Fatalf("charm: %v", err)
	}
	check.Sinks(t, want, got)
	return cc
}

func reductionSetup(leafs, k int) (*graphs.Reduction, map[core.CallbackId]core.Callback, map[core.TaskId][]core.Payload) {
	g, _ := graphs.NewReduction(leafs, k)
	reg := map[core.CallbackId]core.Callback{
		graphs.ReduceLeafCB: sumCB(1),
		graphs.ReduceMidCB:  sumCB(1),
		graphs.ReduceRootCB: sumCB(1),
	}
	initial := make(map[core.TaskId][]core.Payload)
	for i, id := range g.LeafIds() {
		initial[id] = []core.Payload{u64(uint64(i) + 3)}
	}
	return g, reg, initial
}

func TestCharmMatchesSerialOnReduction(t *testing.T) {
	g, reg, initial := reductionSetup(16, 2)
	for _, pes := range []int{1, 2, 3, 8, 64} {
		t.Run(fmt.Sprintf("pes=%d", pes), func(t *testing.T) {
			runBoth(t, g, reg, initial, Options{PEs: pes})
		})
	}
}

func TestCharmWithAggressiveLoadBalancing(t *testing.T) {
	g, reg, initial := reductionSetup(64, 2)
	cc := runBoth(t, g, reg, initial, Options{PEs: 4, LBPeriod: 1})
	// The LB must have observed imbalance at some point on a 127-task
	// graph rebalanced after every single execution.
	if cc.Migrations() == 0 {
		t.Log("warning: aggressive LB performed no migrations (legal but unexpected)")
	}
}

func TestCharmMatchesSerialOnKWayMerge(t *testing.T) {
	g, _ := graphs.NewKWayMerge(8, 2)
	reg := make(map[core.CallbackId]core.Callback)
	for _, cb := range g.Callbacks() {
		reg[cb] = sumCB(1)
	}
	initial := make(map[core.TaskId][]core.Payload)
	for i, id := range g.UpLeafIds() {
		initial[id] = []core.Payload{u64(uint64(i + 1))}
	}
	for _, opt := range []Options{{PEs: 1}, {PEs: 4}, {PEs: 4, LBPeriod: 3}} {
		runBoth(t, g, reg, initial, opt)
	}
}

func TestCharmMatchesSerialOnBinarySwap(t *testing.T) {
	g, _ := graphs.NewBinarySwap(8)
	split := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		var sum uint64
		for _, p := range in {
			sum += getU64(p)
		}
		return []core.Payload{u64(sum), u64(sum ^ 0xABCD)}, nil
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
	runBoth(t, g, reg, initial, Options{PEs: 5, LBPeriod: 2})
}

func TestCharmCallbackErrorPropagates(t *testing.T) {
	g, reg, initial := reductionSetup(8, 2)
	boom := errors.New("boom")
	reg[graphs.ReduceMidCB] = func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		return nil, boom
	}
	cc := New(Options{PEs: 4})
	cc.Initialize(g, nil)
	for cb, fn := range reg {
		cc.RegisterCallback(cb, fn)
	}
	if _, err := cc.Run(initial); !errors.Is(err, boom) {
		t.Errorf("Run = %v, want boom", err)
	}
}

func TestCharmInitializeAndRunErrors(t *testing.T) {
	cc := New(Options{})
	if err := cc.Initialize(nil, nil); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := cc.Run(nil); !errors.Is(err, core.ErrNotInitialized) {
		t.Errorf("Run before init = %v", err)
	}
	g, reg, initial := reductionSetup(4, 2)
	cc2 := New(Options{})
	cc2.Initialize(g, nil)
	cc2.RegisterCallback(graphs.ReduceLeafCB, reg[graphs.ReduceLeafCB])
	if _, err := cc2.Run(initial); !errors.Is(err, core.ErrUnregisteredCallback) {
		t.Errorf("missing callbacks: %v", err)
	}
}

func TestCharmWrongArity(t *testing.T) {
	g, reg, initial := reductionSetup(4, 2)
	reg[graphs.ReduceLeafCB] = sumCB(3)
	cc := New(Options{PEs: 2})
	cc.Initialize(g, nil)
	for cb, fn := range reg {
		cc.RegisterCallback(cb, fn)
	}
	if _, err := cc.Run(initial); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestCharmStatsExist(t *testing.T) {
	g, reg, initial := reductionSetup(8, 2)
	cc := runBoth(t, g, reg, initial, Options{PEs: 4})
	// 15 tasks round-robin over 4 PEs: parents and children interleave, so
	// cross-PE RPCs must occur.
	if s := cc.Stats(); s.Messages == 0 {
		t.Errorf("stats = %+v, expected cross-PE traffic", s)
	}
}

func TestCharmSinglePE(t *testing.T) {
	g, reg, initial := reductionSetup(8, 8)
	cc := runBoth(t, g, reg, initial, Options{PEs: 1})
	if s := cc.Stats(); s.Messages != 0 {
		t.Errorf("single PE should have zero cross-PE traffic, got %+v", s)
	}
}

func TestCharmRecoversCallbackPanic(t *testing.T) {
	g, reg, initial := reductionSetup(8, 2)
	reg[graphs.ReduceMidCB] = func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		panic("chare panic")
	}
	cc := New(Options{PEs: 4})
	cc.Initialize(g, nil)
	for cb, fn := range reg {
		cc.RegisterCallback(cb, fn)
	}
	_, err := cc.Run(initial)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("Run = %v, want panic converted to error", err)
	}
}

// TestCharmArrayPerType runs the chare-array-per-task-type extension the
// paper anticipates in §IV-B; results must stay identical and placement
// must spread each type across PEs.
func TestCharmArrayPerType(t *testing.T) {
	g, reg, initial := reductionSetup(16, 2)
	runBoth(t, g, reg, initial, Options{PEs: 4, ArrayPerType: true})
	runBoth(t, g, reg, initial, Options{PEs: 4, ArrayPerType: true, LBPeriod: 2})

	// Placement check: the 16 leaves (one contiguous id range, which a
	// single array would also spread, but e.g. the two mid-level nodes at
	// ids 1,2 land on distinct PEs per-type) spread over all PEs.
	log := core.NewExecutionLog()
	cc := runBoth(t, g, reg, initial, Options{PEs: 4, ArrayPerType: true, Observer: log})
	_ = cc
	leafPEs := make(map[core.ShardId]bool)
	for _, id := range g.LeafIds() {
		leafPEs[log.Shards[id]] = true
	}
	if len(leafPEs) < 2 {
		t.Errorf("leaf chares used only %d PEs", len(leafPEs))
	}
}
