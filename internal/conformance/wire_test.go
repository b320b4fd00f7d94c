package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// connectWireMesh bootstraps one TCP fabric per rank over loopback,
// exactly as n separate processes would, but in-process so the conformance
// suite can drive real sockets without forking.
func connectWireMesh(t *testing.T, n int, fp core.Fingerprint, opt wire.Options) []*wire.Fabric {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fabrics := make([]*wire.Fabric, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		o := opt
		o.Rank, o.Ranks, o.Addr, o.Fingerprint = r, n, ln.Addr().String(), fp
		if r == 0 {
			o.Listener = ln
		}
		wg.Add(1)
		go func(r int, o wire.Options) {
			defer wg.Done()
			fabrics[r], errs[r] = wire.Connect(o)
		}(r, o)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, f := range fabrics {
			if f != nil {
				f.Kill()
			}
		}
	})
	return fabrics
}

// partitionInitial splits global external inputs into per-rank maps, the
// shape each process feeds its own RunRank.
func partitionInitial(m core.TaskMap, initial map[core.TaskId][]core.Payload) []map[core.TaskId][]core.Payload {
	parts := make([]map[core.TaskId][]core.Payload, m.ShardCount())
	for r := range parts {
		parts[r] = make(map[core.TaskId][]core.Payload)
	}
	for id, ps := range initial {
		parts[m.Shard(id)][id] = ps
	}
	return parts
}

// registerAll binds cb to every callback id the graph declares — the
// uniform-callback shape most conformance workloads use. Workloads with
// heterogeneous callbacks (the iterative registration loop binds a body
// callback plus the decision callback) pass their own register function to
// the *Reg runner variants instead.
func registerAll(g core.TaskGraph, cb core.Callback) func(core.CallbackRegistrar) error {
	return func(c core.CallbackRegistrar) error {
		for _, cid := range g.Callbacks() {
			if err := c.RegisterCallback(cid, cb); err != nil {
				return err
			}
		}
		return nil
	}
}

// runOverWire executes the graph on the MPI controller with every rank on
// its own loopback fabric at the given transport tier and merges the
// per-rank sink outputs.
func runOverWire(t *testing.T, g core.TaskGraph, m core.TaskMap, cb core.Callback, initial map[core.TaskId][]core.Payload, tier wire.Tier) map[core.TaskId][]core.Payload {
	t.Helper()
	return runOverWireReg(t, g, m, registerAll(g, cb), initial, tier)
}

// runOverWireReg is runOverWire with an explicit callback-registration
// function instead of one callback for every id.
func runOverWireReg(t *testing.T, g core.TaskGraph, m core.TaskMap, reg func(core.CallbackRegistrar) error, initial map[core.TaskId][]core.Payload, tier wire.Tier) map[core.TaskId][]core.Payload {
	t.Helper()
	ranks := m.ShardCount()
	ctrl := mpi.New()
	if err := ctrl.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	if err := reg(ctrl); err != nil {
		t.Fatal(err)
	}
	fabrics := connectWireMesh(t, ranks, ctrl.Fingerprint(), wire.Options{Tier: tier})
	parts := partitionInitial(m, initial)

	results := make([]map[core.TaskId][]core.Payload, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = ctrl.RunRank(r, fabrics[r], parts[r])
			if errs[r] == nil {
				errs[r] = fabrics[r].Shutdown(30 * time.Second)
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	merged := make(map[core.TaskId][]core.Payload)
	for _, res := range results {
		for id, ps := range res {
			merged[id] = ps
		}
	}
	return merged
}

func assertSameSinks(t testing.TB, want, got map[core.TaskId][]core.Payload) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sink count %d, want %d", len(got), len(want))
	}
	for id, ws := range want {
		gs := got[id]
		if len(gs) != len(ws) {
			t.Fatalf("task %d: %d payloads, want %d", id, len(gs), len(ws))
		}
		for i := range ws {
			wb, _ := ws[i].Wire()
			gb, _ := gs[i].Wire()
			if !bytes.Equal(wb, gb) {
				t.Errorf("task %d sink %d differs", id, i)
			}
		}
	}
}

func serialReference(t testing.TB, g core.TaskGraph, cb core.Callback, initial map[core.TaskId][]core.Payload) map[core.TaskId][]core.Payload {
	t.Helper()
	return serialReferenceReg(t, g, registerAll(g, cb), initial)
}

func serialReferenceReg(t testing.TB, g core.TaskGraph, reg func(core.CallbackRegistrar) error, initial map[core.TaskId][]core.Payload) map[core.TaskId][]core.Payload {
	t.Helper()
	ser := core.NewSerial()
	ser.Initialize(g, nil)
	if err := reg(ser); err != nil {
		t.Fatal(err)
	}
	want, err := ser.Run(initial)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// conformanceTiers enumerates the transport tiers every wire conformance
// sweep must pass with byte-identical results: forced TCP (the cross-host
// path), forced unix-domain sockets, and forced shared-memory rings (the
// same-host paths). TierAuto needs no row of its own — in-process ranks
// are co-located, so auto resolves to the shm path these sweeps already
// pin.
var conformanceTiers = []struct {
	name string
	tier wire.Tier
}{
	{"tcp", wire.TierTCP},
	{"unix", wire.TierUnix},
	{"shm", wire.TierShm},
}

// TestWireFigureWorkloads runs every figure communication pattern of the
// paper on the MPI controller over real loopback sockets with 4 ranks, at
// each transport tier, and checks the sinks byte-for-byte against the serial
// reference.
func TestWireFigureWorkloads(t *testing.T) {
	mk := func(g core.TaskGraph, err error) core.TaskGraph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := map[string]core.TaskGraph{
		"reduction":  mk(graphAsTaskGraph(graphs.NewReduction(8, 2))),
		"broadcast":  mk(graphAsTaskGraph(graphs.NewBroadcast(8, 2))),
		"binaryswap": mk(graphAsTaskGraph(graphs.NewBinarySwap(8))),
		"kwaymerge":  mk(graphAsTaskGraph(graphs.NewKWayMerge(8, 2))),
		"neighbor3d": mk(graphAsTaskGraph(graphs.NewNeighbor3D(2, 2, 2))),
	}
	for name, g := range cases {
		for _, tc := range conformanceTiers {
			name, g, tc := name, g, tc
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				cb := mixCallback(g)
				initial := externalInputsFor(g)
				want := serialReference(t, g, cb, initial)
				got := runOverWire(t, g, core.NewGraphMap(4, g), cb, initial, tc.tier)
				assertSameSinks(t, want, got)
			})
		}
	}
}

// graphAsTaskGraph adapts the (concrete graph, error) constructor returns.
func graphAsTaskGraph[G core.TaskGraph](g G, err error) (core.TaskGraph, error) {
	return g, err
}

// TestWireRandomDAGConformance is the socket analogue of the
// cross-controller fuzz: random DAGs executed over 4 real loopback fabrics
// (TierAuto — the default tier selection) must match the serial reference
// byte-for-byte. Alternating trials force TCP so the fuzz also covers the
// cross-host framing path.
func TestWireRandomDAGConformance(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		tier := wire.TierAuto
		if trial%2 == 1 {
			tier = wire.TierTCP
		}
		t.Run(fmt.Sprintf("trial%d_%s", trial, tier), func(t *testing.T) {
			t.Parallel()
			g := randomDAG(6+trial*7, uint64(4000+trial))
			if err := core.Validate(g); err != nil {
				t.Fatal(err)
			}
			cb := mixCallback(g)
			initial := externalInputsFor(g)
			want := serialReference(t, g, cb, initial)
			got := runOverWire(t, g, core.NewGraphMap(4, g), cb, initial, tier)
			assertSameSinks(t, want, got)
		})
	}
}

// TestWireKilledRankFailsTyped kills one rank after the handshake and
// before it contributes its inputs: the surviving ranks must unwind with a
// typed peer-loss error well within the heartbeat budget — no hang, no
// panic, no partial success.
func TestWireKilledRankFailsTyped(t *testing.T) {
	g, err := graphs.NewReduction(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewGraphMap(4, g)
	ctrl := mpi.New()
	if err := ctrl.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	cb := mixCallback(g)
	for _, cid := range g.Callbacks() {
		if err := ctrl.RegisterCallback(cid, cb); err != nil {
			t.Fatal(err)
		}
	}
	fabrics := connectWireMesh(t, 4, ctrl.Fingerprint(), wire.Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
	})
	parts := partitionInitial(m, externalInputsFor(g))

	const dead = 3
	fabrics[dead].Kill()

	errs := make([]error, 3)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = ctrl.RunRank(r, fabrics[r], parts[r])
		}(r)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("survivors still blocked 10s after peer death")
	}
	lost := 0
	for r, err := range errs {
		if err == nil {
			// A rank whose local sub-graph needed nothing from the dead rank
			// may legitimately finish; at least one must observe the loss.
			continue
		}
		if !errors.Is(err, wire.ErrPeerLost) && !errors.Is(err, fabric.ErrClosed) {
			t.Errorf("rank %d failed with untyped error: %v", r, err)
		}
		if errors.Is(err, wire.ErrPeerLost) {
			lost++
		}
	}
	if lost == 0 {
		t.Error("no surviving rank reported ErrPeerLost")
	}
}
