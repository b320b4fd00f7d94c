package legion

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

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

// controllers builds all Legion variants for a graph.
func controllers(g core.TaskGraph, shards int, opt Options) map[string]core.Controller {
	m := core.NewModuloMap(shards, g.Size())
	spmd := NewSPMD(opt)
	spmd.Initialize(g, m)
	il := NewIndexLaunch(opt)
	il.Initialize(g, nil)
	return map[string]core.Controller{"spmd": spmd, "indexlaunch": il}
}

func runAll(t *testing.T, g core.TaskGraph, shards int, reg map[core.CallbackId]core.Callback, initial map[core.TaskId][]core.Payload) {
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
		t.Fatal(err)
	}
	for name, c := range controllers(g, shards, Options{}) {
		t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
			for cb, fn := range reg {
				if err := c.RegisterCallback(cb, fn); err != nil {
					t.Fatal(err)
				}
			}
			got, err := c.Run(initial)
			if err != nil {
				t.Fatal(err)
			}
			check.Sinks(t, want, got)
		})
	}
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
		initial[id] = []core.Payload{u64(uint64(i + 2))}
	}
	return g, reg, initial
}

func TestLegionMatchesSerialOnReduction(t *testing.T) {
	g, reg, initial := reductionSetup(16, 2)
	for _, shards := range []int{1, 3, 8, 64} {
		runAll(t, g, shards, reg, initial)
	}
}

func TestLegionMatchesSerialOnBinarySwap(t *testing.T) {
	g, _ := graphs.NewBinarySwap(8)
	split := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		var sum uint64
		for _, p := range in {
			sum += getU64(p)
		}
		return []core.Payload{u64(sum * 3), u64(sum + 7)}, nil
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
	for _, shards := range []int{2, 8} {
		runAll(t, g, shards, reg, initial)
	}
}

func TestLegionMatchesSerialOnKWayMerge(t *testing.T) {
	g, _ := graphs.NewKWayMerge(16, 4)
	reg := make(map[core.CallbackId]core.Callback)
	for _, cb := range g.Callbacks() {
		reg[cb] = sumCB(1)
	}
	initial := make(map[core.TaskId][]core.Payload)
	for i, id := range g.UpLeafIds() {
		initial[id] = []core.Payload{u64(uint64(i * i))}
	}
	runAll(t, g, 4, reg, initial)
}

func TestLegionMetricsPopulated(t *testing.T) {
	g, reg, initial := reductionSetup(16, 2)
	for name, c := range controllers(g, 4, Options{}) {
		for cb, fn := range reg {
			c.RegisterCallback(cb, fn)
		}
		if _, err := c.Run(initial); err != nil {
			t.Fatal(err)
		}
		var m Metrics
		switch cc := c.(type) {
		case *SPMD:
			m = cc.Metrics()
		case *IndexLaunch:
			m = cc.Metrics()
		}
		if m.Tasks != int64(g.Size()) {
			t.Errorf("%s: tasks = %d, want %d", name, m.Tasks, g.Size())
		}
		if m.Launches == 0 {
			t.Errorf("%s: no launches recorded", name)
		}
		if m.StagingNS < 0 || m.ComputeNS <= 0 {
			t.Errorf("%s: metrics = %+v", name, m)
		}
	}
	// SPMD uses single-task launchers: one per task. IndexLaunch uses one
	// launch per round: a 31-task binary reduction has 5 levels.
	spmd := NewSPMD(Options{})
	spmd.Initialize(g, core.NewModuloMap(4, g.Size()))
	for cb, fn := range reg {
		spmd.RegisterCallback(cb, fn)
	}
	spmd.Run(initial)
	if spmd.Metrics().Launches != int64(g.Size()) {
		t.Errorf("SPMD launches = %d, want %d", spmd.Metrics().Launches, g.Size())
	}
	il := NewIndexLaunch(Options{})
	il.Initialize(g, nil)
	for cb, fn := range reg {
		il.RegisterCallback(cb, fn)
	}
	il.Run(initial)
	if il.Metrics().Launches != 5 {
		t.Errorf("IndexLaunch launches = %d, want 5", il.Metrics().Launches)
	}
}

func TestLegionErrorPropagation(t *testing.T) {
	g, reg, initial := reductionSetup(8, 2)
	boom := errors.New("boom")
	reg[graphs.ReduceMidCB] = func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		return nil, boom
	}
	for name, c := range controllers(g, 4, Options{}) {
		for cb, fn := range reg {
			c.RegisterCallback(cb, fn)
		}
		if _, err := c.Run(initial); !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want boom", name, err)
		}
	}
}

// TestLegionFailureReleasesRegions pins the exit path of a failing run:
// when the root of a reduction-8 errors, both launchers have staged the 14
// tasks before it — every region buffer must go back to the arena and the
// metrics of the work done must still be published.
func TestLegionFailureReleasesRegions(t *testing.T) {
	g, reg, initial := reductionSetup(8, 2)
	boom := errors.New("boom")
	reg[graphs.ReduceRootCB] = func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		return nil, boom
	}
	for name, c := range controllers(g, 4, Options{}) {
		t.Run(name, func(t *testing.T) {
			for cb, fn := range reg {
				c.RegisterCallback(cb, fn)
			}
			check.Arena(t, func() {
				if _, err := c.Run(initial); !errors.Is(err, boom) {
					t.Errorf("err = %v, want boom", err)
				}
			})
			if tasks := c.(interface{ Metrics() Metrics }).Metrics().Tasks; tasks != 14 {
				t.Errorf("Metrics().Tasks = %d after the failed run, want 14", tasks)
			}
		})
	}
}

func TestLegionInitializeErrors(t *testing.T) {
	g, _, _ := reductionSetup(4, 2)
	s := NewSPMD(Options{})
	if err := s.Initialize(nil, core.NewModuloMap(1, 1)); err == nil {
		t.Error("nil graph should fail")
	}
	if err := s.Initialize(g, nil); err == nil {
		t.Error("SPMD without a task map should fail")
	}
	if _, err := s.Run(nil); !errors.Is(err, core.ErrNotInitialized) {
		t.Errorf("Run before init = %v", err)
	}
	il := NewIndexLaunch(Options{})
	if err := il.Initialize(g, nil); err != nil {
		t.Errorf("IndexLaunch without a task map should work: %v", err)
	}
	if err := il.RegisterCallback(0, sumCB(1)); err != nil {
		t.Error(err)
	}
}

func TestLegionOpaqueObjectFailsStaging(t *testing.T) {
	// Legion always maps payloads to physical regions through
	// serialization, so even a same-shard opaque object fails.
	g := core.NewExplicitGraph([]core.Task{
		{Id: 0, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{1}}},
		{Id: 1, Callback: 1, Incoming: []core.TaskId{0}, Outgoing: [][]core.TaskId{{}}},
	})
	s := NewSPMD(Options{})
	s.Initialize(g, core.NewModuloMap(1, 2))
	s.RegisterCallback(0, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		return []core.Payload{core.Object(struct{ x int }{1})}, nil
	})
	s.RegisterCallback(1, sumCB(1))
	if _, err := s.Run(map[core.TaskId][]core.Payload{0: {core.Buffer(nil)}}); !errors.Is(err, core.ErrNotSerializable) {
		t.Errorf("staging opaque payload: err = %v", err)
	}
}

func TestPhaseBarrier(t *testing.T) {
	b := NewPhaseBarrier()
	done := make(chan error, 1)
	go func() { done <- b.Wait() }()
	b.Arrive()
	if err := <-done; err != nil {
		t.Errorf("Wait after Arrive = %v", err)
	}
	// Wait after Arrive returns immediately.
	if err := b.Wait(); err != nil {
		t.Errorf("second Wait = %v", err)
	}
	// Cancelled barrier returns ErrCancelled.
	b2 := NewPhaseBarrier()
	b2.Cancel()
	if err := b2.Wait(); !errors.Is(err, ErrCancelled) {
		t.Errorf("cancelled Wait = %v", err)
	}
}

func TestRegionStorePutGet(t *testing.T) {
	s := NewRegionStore()
	id := RegionId{Producer: 3, Slot: 1}
	if err := s.Put(id, u64(9)); err != nil {
		t.Fatal(err)
	}
	p, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if getU64(p) != 9 {
		t.Errorf("Get = %d", getU64(p))
	}
	// Each Get returns an owned copy.
	p.Data[0] = 0xFF
	p2, _ := s.Get(id)
	if getU64(p2) == getU64(p) {
		t.Error("Get must return independent copies")
	}
	// Cancel unblocks future gets on unseen regions.
	s.Cancel()
	if _, err := s.Get(RegionId{Producer: 99}); !errors.Is(err, ErrCancelled) {
		t.Errorf("Get after Cancel = %v", err)
	}
}

func TestProducerSlotOccurrences(t *testing.T) {
	p := core.Task{
		Id:       0,
		Outgoing: [][]core.TaskId{{5}, {6}, {5}},
	}
	if s, err := producerSlot(p, 5, 0); err != nil || s != 0 {
		t.Errorf("occ 0: slot=%d err=%v", s, err)
	}
	if s, err := producerSlot(p, 5, 1); err != nil || s != 2 {
		t.Errorf("occ 1: slot=%d err=%v", s, err)
	}
	if _, err := producerSlot(p, 5, 2); err == nil {
		t.Error("occ 2 should fail")
	}
	if _, err := producerSlot(p, 7, 0); err == nil {
		t.Error("unknown consumer should fail")
	}
}

func TestLegionRecoversCallbackPanic(t *testing.T) {
	g, reg, initial := reductionSetup(8, 2)
	reg[graphs.ReduceMidCB] = func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		panic("region panic")
	}
	for name, c := range controllers(g, 4, Options{}) {
		for cb, fn := range reg {
			c.RegisterCallback(cb, fn)
		}
		_, err := c.Run(initial)
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: Run = %v, want panic converted to error", name, err)
		}
	}
}

// TestSPMDAdversarialPlacementNoDeadlock pins interleaved pieces of two
// parallel chains onto opposite shards — the classic shape that deadlocks
// schedulers executing tasks in placement order. The SPMD controller's
// global level ordering must drain it.
func TestSPMDAdversarialPlacementNoDeadlock(t *testing.T) {
	// Chains A: 0->1->2->3 and B: 10->11->12->13.
	var tasks []core.Task
	for _, base := range []core.TaskId{0, 10} {
		for i := core.TaskId(0); i < 4; i++ {
			task := core.Task{Id: base + i, Callback: 0}
			if i == 0 {
				task.Incoming = []core.TaskId{core.ExternalInput}
			} else {
				task.Incoming = []core.TaskId{base + i - 1}
			}
			if i == 3 {
				task.Outgoing = [][]core.TaskId{{}}
			} else {
				task.Outgoing = [][]core.TaskId{{base + i + 1}}
			}
			tasks = append(tasks, task)
		}
	}
	g := core.NewExplicitGraph(tasks)
	// Shard 0 holds {A0, A2, B1, B3}; shard 1 holds {B0, B2, A1, A3}:
	// every chain ping-pongs between the shards.
	onShard0 := map[core.TaskId]bool{0: true, 2: true, 11: true, 13: true}
	m := core.NewFuncMap(2, g.TaskIds(), func(id core.TaskId) core.ShardId {
		if onShard0[id] {
			return 0
		}
		return 1
	})
	s := NewSPMD(Options{})
	if err := s.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	s.RegisterCallback(0, sumCB(1))
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(map[core.TaskId][]core.Payload{0: {u64(1)}, 10: {u64(2)}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SPMD deadlocked on adversarial placement")
	}
}
