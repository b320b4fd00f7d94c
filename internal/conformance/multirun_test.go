package conformance

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// The multi-run suite pins the service-mode execution shape: many graph
// instances multiplexed over ONE warm socket mesh — each rank holding a
// run demultiplexer over its resident fabric, each run executing through
// its own RunTransport views — must produce sinks byte-identical to the
// serial reference for every instance, at both socket tiers. Any
// cross-run message leak, misrouted frame or demux teardown bug flips a
// digest or wedges a run.

// warmMeshRun executes one graph instance, observed by obs, over the
// resident mesh through fresh per-rank demux views for run id, merging the
// per-rank sinks.
func warmMeshRun(g core.TaskGraph, m core.TaskMap, cb core.Callback, obs core.Observer, demuxes []*fabric.Demux, id uint64) (map[core.TaskId][]core.Payload, error) {
	ranks := m.ShardCount()
	ctrl := mpi.New(mpi.WithObserver(obs))
	if err := ctrl.Initialize(g, m); err != nil {
		return nil, err
	}
	if err := registerAll(g, cb)(ctrl); err != nil {
		return nil, err
	}
	views := make([]fabric.Transport, ranks)
	for r := 0; r < ranks; r++ {
		v, err := demuxes[r].Open(id)
		if err != nil {
			return nil, err
		}
		views[r] = v
	}
	defer func() {
		for r := 0; r < ranks; r++ {
			demuxes[r].Release(id)
		}
	}()
	parts := partitionInitial(m, externalInputsFor(g))

	results := make([]map[core.TaskId][]core.Payload, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = ctrl.RunRank(r, views[r], parts[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("run %d rank %d: %w", id, r, err)
		}
	}
	merged := make(map[core.TaskId][]core.Payload)
	for _, res := range results {
		for tid, ps := range res {
			merged[tid] = ps
		}
	}
	return merged, nil
}

// multiRunOverTier interleaves N graph instances over one warm mesh at the
// given tier and checks every instance against its serial reference, each
// with a checker of its own.
func multiRunOverTier(t *testing.T, tier wire.Tier) {
	check.NoLeak(t)
	const ranks, runs = 4, 8

	// Two different graph shapes interleave over the same mesh, so runs
	// also differ in message pattern, not just run id.
	shapes := []core.TaskGraph{}
	kwm, err := graphs.NewKWayMerge(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	bsw, err := graphs.NewBinarySwap(8)
	if err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes, kwm, bsw)

	type instance struct {
		g   core.TaskGraph
		m   core.TaskMap
		cb  core.Callback
		ref check.Reference
		chk *check.Checker
	}
	insts := make([]instance, runs)
	for i := range insts {
		g := shapes[i%len(shapes)]
		cb := mixCallback(g)
		insts[i] = instance{g, core.NewModuloMap(ranks, g.Size()), cb, serialReference(t, g, cb), new(check.Checker)}
	}

	// One warm mesh for everything. The fingerprint pin only guards
	// mismatched binaries; the interleaved graphs share it via Epoch-style
	// trust in the run id, so connect with the first instance's print.
	fpCtrl := mpi.New()
	if err := fpCtrl.Initialize(insts[0].g, insts[0].m); err != nil {
		t.Fatal(err)
	}
	fabrics := connectWireMesh(t, ranks, fpCtrl.Fingerprint(), wire.Options{Tier: tier})
	demuxes := make([]*fabric.Demux, ranks)
	for r := range demuxes {
		demuxes[r] = fabric.NewDemux(fabrics[r], r)
	}

	got := make([]map[core.TaskId][]core.Payload, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = warmMeshRun(insts[i].g, insts[i].m, insts[i].cb, insts[i].chk, demuxes, uint64(i+1))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	for i, in := range insts {
		in.chk.Run(t, in.ref, got[i])
	}

	// Clean teardown: demuxes first (runs are all released), then the
	// mesh, then the pumps join. Strays would mean a frame escaped its run.
	var stray uint64
	for _, d := range demuxes {
		stray += d.Stray()
		if n := d.Runs(); n != 0 {
			t.Fatalf("demux still holds %d runs after drain", n)
		}
		d.Close()
	}
	if stray != 0 {
		t.Fatalf("%d frames routed to no run", stray)
	}
	var shut sync.WaitGroup
	for _, f := range fabrics {
		shut.Add(1)
		go func(f *wire.Fabric) {
			defer shut.Done()
			f.Shutdown(30 * time.Second)
		}(f)
	}
	shut.Wait()
	for _, d := range demuxes {
		d.Wait()
	}
}

func TestMultiRunWarmMeshTCP(t *testing.T) {
	multiRunOverTier(t, wire.TierTCP)
}

func TestMultiRunWarmMeshUnix(t *testing.T) {
	multiRunOverTier(t, wire.TierUnix)
}

func TestMultiRunWarmMeshShm(t *testing.T) {
	multiRunOverTier(t, wire.TierShm)
}

// TestMultiRunSequentialReuse reuses one warm mesh for many sequential
// runs — run ids strictly increasing, mailboxes built and torn down per
// run — and checks the last run is as byte-exact as the first.
func TestMultiRunSequentialReuse(t *testing.T) {
	check.NoLeak(t)
	const ranks, runs = 3, 12
	g, err := graphs.NewReduction(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewModuloMap(ranks, g.Size())
	cb := mixCallback(g)
	ref := serialReference(t, g, cb)
	chk := new(check.Checker)

	fpCtrl := mpi.New()
	if err := fpCtrl.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	fabrics := connectWireMesh(t, ranks, fpCtrl.Fingerprint(), wire.Options{Tier: wire.TierUnix})
	demuxes := make([]*fabric.Demux, ranks)
	for r := range demuxes {
		demuxes[r] = fabric.NewDemux(fabrics[r], r)
	}

	for i := 0; i < runs; i++ {
		got, err := warmMeshRun(g, m, cb, chk, demuxes, uint64(i+1))
		if err != nil {
			t.Fatalf("sequential run %d: %v", i, err)
		}
		chk.Run(t, ref, got)
	}

	for _, d := range demuxes {
		d.Close()
	}
	var shut sync.WaitGroup
	for _, f := range fabrics {
		shut.Add(1)
		go func(f *wire.Fabric) {
			defer shut.Done()
			f.Shutdown(30 * time.Second)
		}(f)
	}
	shut.Wait()
	for _, d := range demuxes {
		d.Wait()
	}
}
