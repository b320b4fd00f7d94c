package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.MaxAttempts != 3 || p.BaseBackoff != 50*time.Millisecond || p.MaxBackoff != 2*time.Second || p.Jitter != 0.2 {
		t.Errorf("defaults = %+v", p)
	}
	if p.AttemptTimeout != 0 {
		t.Errorf("default AttemptTimeout = %v, want disabled", p.AttemptTimeout)
	}
	// Explicit values survive.
	q := RetryPolicy{MaxAttempts: 7, BaseBackoff: time.Second, Jitter: -1}.WithDefaults()
	if q.MaxAttempts != 7 || q.BaseBackoff != time.Second || q.Jitter != 0 {
		t.Errorf("explicit = %+v", q)
	}
}

func TestRetryBackoff(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Jitter: -1}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 6; attempt++ {
		d := p.Backoff(attempt)
		if d < prev {
			t.Errorf("attempt %d: backoff %v shrank below %v", attempt, d, prev)
		}
		if d > 80*time.Millisecond {
			t.Errorf("attempt %d: backoff %v exceeds cap", attempt, d)
		}
		prev = d
	}
	if p.Backoff(1) != 10*time.Millisecond {
		t.Errorf("first backoff = %v", p.Backoff(1))
	}
	// Jitter is deterministic: same attempt, same wait.
	j := RetryPolicy{BaseBackoff: 10 * time.Millisecond}
	if j.Backoff(2) != j.Backoff(2) {
		t.Error("jittered backoff not reproducible")
	}
}

// TestRetryBackoffJitterCapped pins the MaxBackoff contract: the cap bounds
// the final wait, jitter included. Before the fix, jitter was added after
// the cap, so late attempts could wait up to Jitter× longer than documented.
func TestRetryBackoffJitterCapped(t *testing.T) {
	cases := []struct {
		name    string
		p       RetryPolicy
		attempt int
		max     time.Duration
	}{
		{"at-cap-full-jitter", RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 400 * time.Millisecond, Jitter: 1}, 10, 400 * time.Millisecond},
		{"at-cap-default-jitter", RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 400 * time.Millisecond}, 6, 400 * time.Millisecond},
		{"base-equals-cap", RetryPolicy{BaseBackoff: time.Second, MaxBackoff: time.Second, Jitter: 0.5}, 1, time.Second},
		{"below-cap", RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Hour, Jitter: 1}, 2, 40 * time.Millisecond},
		{"default-cap", RetryPolicy{Jitter: 1}, 30, 2 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if d := tc.p.Backoff(tc.attempt); d > tc.max {
				t.Errorf("Backoff(%d) = %v, exceeds cap %v", tc.attempt, d, tc.max)
			}
		})
	}
	// Jitter still spreads waits below the cap.
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Hour, Jitter: 1}
	if p.Backoff(1) == p.Backoff(2)/2 && p.Backoff(2) == p.Backoff(3)/2 {
		t.Error("jitter appears disabled: waits are exactly exponential")
	}
}

func TestRetrySleepCancelled(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := p.Sleep(ctx, 1)
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("Sleep on cancelled ctx: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("Sleep did not return promptly on cancellation")
	}
}

func TestCancelledPreservesCause(t *testing.T) {
	cause := errors.New("deadline blown")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	err := Cancelled(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("Cancelled() = %v, want ErrCancelled", err)
	}
	if !strings.Contains(err.Error(), cause.Error()) {
		t.Errorf("cause lost: %v", err)
	}
}

func TestLedgerRecordReplay(t *testing.T) {
	l := NewLedger()
	if _, ok := l.Outputs(1); ok {
		t.Error("empty ledger claims outputs")
	}
	if got := l.BeginAttempt(1); got != 1 {
		t.Errorf("first attempt = %d", got)
	}
	if got := l.BeginAttempt(1); got != 2 {
		t.Errorf("second attempt = %d", got)
	}
	l.Record(1, [][]byte{[]byte("a"), []byte("b")})
	outs, ok := l.Outputs(1)
	if !ok || len(outs) != 2 || string(outs[0]) != "a" {
		t.Errorf("Outputs = %v, %v", outs, ok)
	}
	l.CountReplay()
	if l.Replays() != 1 || l.Executions() != 2 || l.Completed() != 1 || l.Attempts(1) != 2 {
		t.Errorf("counters: replays=%d execs=%d completed=%d attempts=%d",
			l.Replays(), l.Executions(), l.Completed(), l.Attempts(1))
	}
}

// fakeStore is an in-memory LedgerStore for cache/spill tests (the real
// disk-backed implementation lives in internal/journal, which core cannot
// import).
type fakeStore struct {
	mu      sync.Mutex
	recs    map[TaskId][][]byte
	appends int
	gets    int
	failApp bool
}

func newFakeStore() *fakeStore { return &fakeStore{recs: make(map[TaskId][][]byte)} }

func (s *fakeStore) Append(id TaskId, outs [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appends++
	if s.failApp {
		return errors.New("fake store: append failed")
	}
	cp := make([][]byte, len(outs))
	for i, o := range outs {
		cp[i] = append([]byte(nil), o...)
	}
	s.recs[id] = cp
	return nil
}

func (s *fakeStore) Get(id TaskId) ([][]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	outs, ok := s.recs[id]
	if !ok {
		return nil, false, nil
	}
	cp := make([][]byte, len(outs))
	for i, o := range outs {
		cp[i] = append([]byte(nil), o...)
	}
	return cp, true, nil
}

func (s *fakeStore) TaskIds() []TaskId {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]TaskId, 0, len(s.recs))
	for id := range s.recs {
		ids = append(ids, id)
	}
	return ids
}

func (s *fakeStore) Sync() error  { return nil }
func (s *fakeStore) Close() error { return nil }

func TestLedgerBackedSpillsToStore(t *testing.T) {
	st := newFakeStore()
	l := NewLedgerBacked(st, 4)
	const n = 20
	for id := TaskId(0); id < n; id++ {
		l.Record(id, [][]byte{{byte(id)}})
	}
	if c := l.Cached(); c > 4 {
		t.Errorf("cache holds %d entries, limit 4", c)
	}
	if l.Completed() != n {
		t.Errorf("Completed = %d, want %d (spilled entries must still count)", l.Completed(), n)
	}
	// Every entry — cached or spilled — is still replayable.
	for id := TaskId(0); id < n; id++ {
		outs, ok := l.Outputs(id)
		if !ok || len(outs) != 1 || outs[0][0] != byte(id) {
			t.Fatalf("task %d: outs=%v ok=%v", id, outs, ok)
		}
	}
	if st.gets == 0 {
		t.Error("no store reads: nothing actually spilled")
	}
	if st.appends != n {
		t.Errorf("store saw %d appends, want %d", st.appends, n)
	}
}

func TestLedgerBackedRestores(t *testing.T) {
	st := newFakeStore()
	prior := NewLedgerBacked(st, 8)
	for id := TaskId(0); id < 5; id++ {
		prior.Record(id, [][]byte{{0xA0 + byte(id)}})
	}
	// A "restarted run" opens a fresh ledger over the same store.
	l := NewLedgerBacked(st, 8)
	if l.Restored() != 5 {
		t.Fatalf("Restored = %d, want 5", l.Restored())
	}
	if l.Completed() != 5 {
		t.Fatalf("Completed = %d, want 5", l.Completed())
	}
	for id := TaskId(0); id < 5; id++ {
		outs, ok := l.Outputs(id)
		if !ok || outs[0][0] != 0xA0+byte(id) {
			t.Fatalf("restored task %d: outs=%v ok=%v", id, outs, ok)
		}
	}
	if _, ok := l.Outputs(99); ok {
		t.Error("never-journaled task replayable after restore")
	}
}

func TestLedgerBackedPinsOnStoreFailure(t *testing.T) {
	st := newFakeStore()
	st.failApp = true
	l := NewLedgerBacked(st, 2)
	const n = 10
	for id := TaskId(0); id < n; id++ {
		l.Record(id, [][]byte{{byte(id)}})
	}
	if l.StoreErrors() != n {
		t.Errorf("StoreErrors = %d, want %d", l.StoreErrors(), n)
	}
	// Unpersisted entries are pinned: evicting them would lose outputs.
	for id := TaskId(0); id < n; id++ {
		if outs, ok := l.Outputs(id); !ok || outs[0][0] != byte(id) {
			t.Fatalf("task %d lost after store failure (ok=%v)", id, ok)
		}
	}
	if l.Completed() != n {
		t.Errorf("Completed = %d, want %d", l.Completed(), n)
	}
}

// reassignGraph builds a 8-task chainless graph for map tests.
func reassignGraph() *ExplicitGraph {
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Id: TaskId(i), Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{}}}
	}
	return NewExplicitGraph(tasks)
}

func TestPlanRebalanceLoss(t *testing.T) {
	g := reassignGraph()
	m := NewGraphMap(4, g)
	// Kill shard 2: survivors 0,1,3 become logical 0,1,2.
	next, err := rebalance(g, m, []ShardId{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if next.ShardCount() != 3 {
		t.Fatalf("shard count = %d", next.ShardCount())
	}
	logical := map[ShardId]ShardId{0: 0, 1: 1, 3: 2}
	orphans := 0
	for _, id := range g.TaskIds() {
		old := m.Shard(id)
		got := next.Shard(id)
		if got < 0 || got >= 3 {
			t.Fatalf("task %d mapped to shard %d of 3", id, got)
		}
		if want, survived := logical[old]; survived {
			if got != want {
				t.Errorf("task %d: survivor shard %d renumbered to %d, want %d", id, old, got, want)
			}
		} else {
			orphans++
		}
	}
	if orphans == 0 {
		t.Error("graph map put no task on the killed shard; test is vacuous")
	}
}

// TestPlanRebalanceLosesHighestRank kills the top shard: no survivor moves,
// and every orphan lands on a valid logical shard.
func TestPlanRebalanceLosesHighestRank(t *testing.T) {
	g := reassignGraph()
	m := NewGraphMap(4, g)
	next, err := rebalance(g, m, []ShardId{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if next.ShardCount() != 3 {
		t.Fatalf("shard count = %d", next.ShardCount())
	}
	orphans := 0
	for _, id := range g.TaskIds() {
		old, got := m.Shard(id), next.Shard(id)
		switch {
		case old <= 2 && got != old:
			// Survivors 0..2 keep their own numbers (identity renumbering),
			// so their ledgers stay valid without translation.
			t.Errorf("task %d moved from surviving shard %d to %d", id, old, got)
		case old == 3:
			orphans++
			if got < 0 || got > 2 {
				t.Errorf("orphan task %d on shard %d", id, got)
			}
		}
	}
	if orphans == 0 {
		t.Fatal("no task lived on the killed shard; test is vacuous")
	}
}

// TestPlanRebalanceSuccessiveLosses chains two epochs of loss, 4 → 3 → 2,
// as a supervised mpi run does: the second reassignment starts from the first's map.
func TestPlanRebalanceSuccessiveLosses(t *testing.T) {
	g := reassignGraph()
	m0 := NewGraphMap(4, g)
	m1, err := rebalance(g, m0, []ShardId{0, 2, 3}) // lose shard 1
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 2 loses logical shard 2 (originally 3) of the reassigned map.
	m2, err := rebalance(g, m1, []ShardId{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m2.ShardCount() != 2 {
		t.Fatalf("shard count after two losses = %d", m2.ShardCount())
	}
	counts := map[ShardId]int{}
	for _, id := range g.TaskIds() {
		got := m2.Shard(id)
		if got != 0 && got != 1 {
			t.Fatalf("task %d on shard %d of 2", id, got)
		}
		counts[got]++
		// Tasks that survived both epochs on logical shards 0/1 never move.
		if prev := m1.Shard(id); prev <= 1 && got != prev {
			t.Errorf("task %d moved from twice-surviving shard %d to %d", id, prev, got)
		}
	}
	if len(g.TaskIds()) != counts[0]+counts[1] {
		t.Errorf("tasks lost in reassignment: %v", counts)
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("round-robin left a survivor idle: %v", counts)
	}
}

// TestPlanRebalanceSingleSurvivor degrades 4 → 1: the survivor owns the
// entire graph.
func TestPlanRebalanceSingleSurvivor(t *testing.T) {
	g := reassignGraph()
	m := NewGraphMap(4, g)
	for _, last := range []ShardId{0, 3} {
		next, err := rebalance(g, m, []ShardId{last})
		if err != nil {
			t.Fatalf("survivor %d: %v", last, err)
		}
		if next.ShardCount() != 1 {
			t.Fatalf("survivor %d: shard count = %d", last, next.ShardCount())
		}
		for _, id := range g.TaskIds() {
			if got := next.Shard(id); got != 0 {
				t.Errorf("survivor %d: task %d on shard %d, want 0", last, id, got)
			}
		}
	}
}

// roleGraph is a minimal RoledGraph for registration tests.
type roleGraph struct {
	*ExplicitGraph
}

func (roleGraph) CallbackRoles() map[Role]CallbackId {
	return map[Role]CallbackId{RoleLeaf: 0, RoleRoot: 1}
}

func newRoleGraph() roleGraph {
	return roleGraph{NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}}},
		{Id: 1, Callback: 1, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{}}},
	})}
}

func passCB(in []Payload, id TaskId) ([]Payload, error) {
	return []Payload{Buffer([]byte{byte(id)})}, nil
}

func TestRegisterCallbacksByRole(t *testing.T) {
	g := newRoleGraph()
	ser := NewSerial()
	if err := ser.Initialize(g, nil); err != nil {
		t.Fatal(err)
	}
	if err := RegisterCallbacks(ser, g, map[Role]Callback{
		RoleLeaf: passCB,
		RoleRoot: passCB,
	}); err != nil {
		t.Fatal(err)
	}
	out, err := ser.Run(map[TaskId][]Payload{0: {Buffer([]byte{9})}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("sinks = %d", len(out))
	}
}

func TestRegisterCallbacksErrors(t *testing.T) {
	g := newRoleGraph()
	ser := NewSerial()
	ser.Initialize(g, nil)

	err := RegisterCallbacks(ser, g, map[Role]Callback{RoleLeaf: passCB})
	if err == nil || !strings.Contains(err.Error(), "no callback for role") || !strings.Contains(err.Error(), "root") {
		t.Errorf("missing role error = %v", err)
	}
	err = RegisterCallbacks(ser, g, map[Role]Callback{
		RoleLeaf: passCB, RoleRoot: passCB, RoleRelay: passCB,
	})
	if err == nil || !strings.Contains(err.Error(), "no role") || !strings.Contains(err.Error(), "relay") {
		t.Errorf("unknown role error = %v", err)
	}
	err = RegisterCallbacks(ser, g.ExplicitGraph, map[Role]Callback{RoleLeaf: passCB})
	if err == nil || !strings.Contains(err.Error(), "does not name callback roles") {
		t.Errorf("unroled graph error = %v", err)
	}
}
