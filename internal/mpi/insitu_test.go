package mpi

import (
	"errors"
	"sync"
	"testing"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// splitInitial partitions a global initial-input map into per-rank maps.
func splitInitial(m core.TaskMap, initial map[core.TaskId][]core.Payload) map[int]map[core.TaskId][]core.Payload {
	out := make(map[int]map[core.TaskId][]core.Payload)
	for id, ps := range initial {
		r := int(m.Shard(id))
		if out[r] == nil {
			out[r] = make(map[core.TaskId][]core.Payload)
		}
		out[r][id] = ps
	}
	return out
}

// TestInSituMatchesMonolithicRun: every rank independently instantiates and
// runs its sub-graph with only its local data; the combined sink outputs
// equal the single-driver Run.
func TestInSituMatchesMonolithicRun(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	m := core.NewModuloMap(4, g.Size())
	initial := reductionInputs(g)

	// Monolithic reference.
	ref := New()
	ref.Initialize(g, m)
	for _, cb := range g.Callbacks() {
		ref.RegisterCallback(cb, sumCB(1))
	}
	want, err := ref.Run(cloneInitial(initial))
	if err != nil {
		t.Fatal(err)
	}

	// In-situ group: ranks reach the analysis phase at different times,
	// like a real simulation's. The odd ranks join only once an even
	// rank's first callback ran, so the group is already executing when
	// they do.
	group, err := NewGroup(g, m)
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	var once sync.Once
	for _, cb := range g.Callbacks() {
		sum := sumCB(1)
		group.RegisterCallback(cb, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
			once.Do(func() { close(running) })
			return sum(in, id)
		})
	}
	perRank := splitInitial(m, cloneInitial(initial))

	combined := make(map[core.TaskId][]core.Payload)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < group.Ranks(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if rank%2 == 1 {
				<-running
			}
			shard, err := group.Shard(rank)
			if err != nil {
				t.Error(err)
				return
			}
			out, err := shard.Run(perRank[rank])
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			mu.Lock()
			for id, ps := range out {
				combined[id] = ps
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()

	check.Sinks(t, want, combined)
}

// TestInSituSinkLocality: each shard's Run returns only the sinks of its
// own tasks.
func TestInSituSinkLocality(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	m := core.NewModuloMap(3, g.Size())
	group, _ := NewGroup(g, m)
	for _, cb := range g.Callbacks() {
		group.RegisterCallback(cb, sumCB(1))
	}
	perRank := splitInitial(m, reductionInputs(g))
	outs := make([]map[core.TaskId][]core.Payload, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			shard, _ := group.Shard(rank)
			out, err := shard.Run(perRank[rank])
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
			outs[rank] = out
		}(r)
	}
	wg.Wait()
	// The only sink (root, task 0) lives on rank 0.
	if len(outs[0]) != 1 || len(outs[1]) != 0 || len(outs[2]) != 0 {
		t.Errorf("sink distribution = %d/%d/%d, want 1/0/0", len(outs[0]), len(outs[1]), len(outs[2]))
	}
}

func TestInSituLocalInputValidation(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	m := core.NewModuloMap(2, g.Size())
	group, _ := NewGroup(g, m)
	for _, cb := range g.Callbacks() {
		group.RegisterCallback(cb, sumCB(1))
	}
	shard, _ := group.Shard(0)
	// Leaf 4 lives on rank 0 (4 % 2 == 0); leaf 3 does not.
	if _, err := shard.Run(map[core.TaskId][]core.Payload{3: {u64(1)}}); err == nil {
		t.Error("inputs for a non-local task should fail")
	}
	if _, err := group.Shard(7); err == nil {
		t.Error("out-of-range rank should fail")
	}
}

func TestInSituDoubleRunRejected(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	m := core.NewModuloMap(1, g.Size())
	group, _ := NewGroup(g, m)
	for _, cb := range g.Callbacks() {
		group.RegisterCallback(cb, sumCB(1))
	}
	shard, _ := group.Shard(0)
	if _, err := shard.Run(reductionInputs(g)); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Run(reductionInputs(g)); err == nil {
		t.Error("second Run on the same rank should fail")
	}
}

func TestInSituErrorPropagatesAcrossShards(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	m := core.NewModuloMap(2, g.Size())
	group, _ := NewGroup(g, m)
	boom := errors.New("boom")
	group.RegisterCallback(graphs.ReduceLeafCB, sumCB(1))
	group.RegisterCallback(graphs.ReduceMidCB, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		if id == 1 {
			return nil, boom
		}
		return sumCB(1)(in, id)
	})
	group.RegisterCallback(graphs.ReduceRootCB, sumCB(1))
	perRank := splitInitial(m, reductionInputs(g))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			shard, _ := group.Shard(rank)
			_, errs[rank] = shard.Run(perRank[rank])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("rank %d error = %v, want boom", r, err)
		}
	}
}
