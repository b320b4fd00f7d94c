package core

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

const cbCount CallbackId = 7

// counterBody is the smallest loop body: one task with one external input
// and one sink output.
func counterBody(t *testing.T) *ExplicitGraph {
	t.Helper()
	g := NewExplicitGraph([]Task{{
		Id:       0,
		Callback: cbCount,
		Incoming: []TaskId{ExternalInput},
		Outgoing: [][]TaskId{nil},
	}})
	if err := Validate(g); err != nil {
		t.Fatalf("body invalid: %v", err)
	}
	return g
}

func u32(v uint32) Payload {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return Buffer(b)
}

func u32of(t *testing.T, p Payload) uint32 {
	t.Helper()
	if len(p.Data) != 4 {
		t.Fatalf("payload is not a u32: %v", p)
	}
	return binary.LittleEndian.Uint32(p.Data)
}

// incr adds one to a little-endian u32 payload.
func incr(in []Payload, _ TaskId) ([]Payload, error) {
	v := binary.LittleEndian.Uint32(in[0].Data)
	return []Payload{u32(v + 1)}, nil
}

func runIterative(t *testing.T, ig *IterativeGraph, initial map[TaskId][]Payload, cbs map[CallbackId]Callback) map[TaskId][]Payload {
	t.Helper()
	s := NewSerial()
	if err := s.Initialize(ig, nil); err != nil {
		t.Fatal(err)
	}
	for cb, fn := range cbs {
		if err := s.RegisterCallback(cb, fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := ig.RegisterDecision(s); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(initial)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIterateConvergesSerially(t *testing.T) {
	body := counterBody(t)
	pred := func(iter int, sinks map[TaskId][]Payload) (bool, error) {
		return binary.LittleEndian.Uint32(sinks[0][0].Data) >= 3, nil
	}
	ig, err := Iterate(body, pred, MaxIterations(8), Gate(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res := runIterative(t, ig, map[TaskId][]Payload{0: {u32(0)}}, map[CallbackId]Callback{cbCount: incr})

	iter, sinks, err := ig.Final(res)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 2 {
		t.Fatalf("converged at iteration %d, want 2", iter)
	}
	if got := u32of(t, sinks[0][0]); got != 3 {
		t.Fatalf("converged value %d, want 3", got)
	}
	// Dead tokens never surface as results.
	for id, ps := range res {
		for _, p := range ps {
			if IsDead(p) {
				t.Fatalf("dead token leaked into results of task %d", id)
			}
		}
	}
}

func TestIterateMaxIterationsBound(t *testing.T) {
	body := counterBody(t)
	never := func(int, map[TaskId][]Payload) (bool, error) { return false, nil }
	ig, err := Iterate(body, never, MaxIterations(4), Gate(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res := runIterative(t, ig, map[TaskId][]Payload{0: {u32(0)}}, map[CallbackId]Callback{cbCount: incr})
	iter, sinks, err := ig.Final(res)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 3 {
		t.Fatalf("bound drain at iteration %d, want 3", iter)
	}
	if got := u32of(t, sinks[0][0]); got != 4 {
		t.Fatalf("drained value %d, want 4 (all iterations ran)", got)
	}
}

func TestIterateUnrollStructure(t *testing.T) {
	body := counterBody(t)
	never := func(int, map[TaskId][]Payload) (bool, error) { return false, nil }
	const M = 5
	ig, err := Iterate(body, never, MaxIterations(M), Gate(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ig.Size(), M*(body.Size()+1); got != want {
		t.Fatalf("unrolled size %d, want %d (body+decision per iteration)", got, want)
	}
	if ig.MaxIter() != M {
		t.Fatalf("MaxIter %d, want %d", ig.MaxIter(), M)
	}
	for k := 0; k < M; k++ {
		bt, ok := ig.Task(IterId(k, 0))
		if !ok {
			t.Fatalf("iteration %d body copy missing", k)
		}
		if IterOf(bt.Id) != k || BodyId(bt.Id) != 0 {
			t.Fatalf("iteration %d body id decodes to (iter %d, body %d)", k, IterOf(bt.Id), BodyId(bt.Id))
		}
		d, ok := ig.Task(DecisionId(k))
		if !ok {
			t.Fatalf("iteration %d decision task missing", k)
		}
		if !IsDecision(d.Id) {
			t.Fatalf("decision id %d not recognized", d.Id)
		}
		if k < M-1 {
			if d.Branches != 2 || len(d.Cond) != 2 {
				t.Fatalf("decision %d: branches %d, cond %v — want a 2-branch conditional", k, d.Branches, d.Cond)
			}
		} else if d.Branches != 0 {
			t.Fatalf("final decision is conditional; it must drain unconditionally")
		}
	}
	// Iteration 1's body input is gated through decision 0, not external.
	bt, _ := ig.Task(IterId(1, 0))
	if bt.Incoming[0] != DecisionId(0) {
		t.Fatalf("iteration 1 input wired to %d, want decision %d", bt.Incoming[0], DecisionId(0))
	}
}

func TestIterateCarryFeedsNextIteration(t *testing.T) {
	// Body: task 0 consumes a carried config and a gated value, emits both.
	g := NewExplicitGraph([]Task{{
		Id:       0,
		Callback: cbCount,
		Incoming: []TaskId{ExternalInput, ExternalInput},
		Outgoing: [][]TaskId{nil, nil},
	}})
	add := func(in []Payload, _ TaskId) ([]Payload, error) {
		cfg := binary.LittleEndian.Uint32(in[0].Data)
		v := binary.LittleEndian.Uint32(in[1].Data)
		return []Payload{u32(cfg), u32(v + cfg)}, nil
	}
	pred := func(iter int, sinks map[TaskId][]Payload) (bool, error) {
		return binary.LittleEndian.Uint32(sinks[0][0].Data) >= 10, nil
	}
	ig, err := Iterate(g, pred, MaxIterations(8),
		Carry(0, 0, 0, 0), // config loops around unchanged
		Gate(0, 1, 0, 1))  // accumulator is what converges
	if err != nil {
		t.Fatal(err)
	}
	res := runIterative(t, ig, map[TaskId][]Payload{0: {u32(5), u32(0)}}, map[CallbackId]Callback{cbCount: add})
	iter, sinks, err := ig.Final(res)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 1 {
		t.Fatalf("converged at iteration %d, want 1 (0+5=5, 5+5=10)", iter)
	}
	if got := u32of(t, sinks[0][0]); got != 10 {
		t.Fatalf("converged accumulator %d, want 10", got)
	}
}

func TestIterateRejectsBadConfigurations(t *testing.T) {
	body := counterBody(t)
	never := func(int, map[TaskId][]Payload) (bool, error) { return false, nil }
	cases := []struct {
		name string
		body TaskGraph
		pred ConvergencePredicate
		opts []IterOption
		want string
	}{
		{"nil body", nil, never, nil, "nil body"},
		{"nil predicate", body, nil, []IterOption{Gate(0, 0, 0, 0)}, "predicate"},
		{"no gates", body, never, nil, "at least one Gate"},
		{"zero max", body, never, []IterOption{Gate(0, 0, 0, 0), MaxIterations(0)}, "out of range"},
		{"excess max", body, never, []IterOption{Gate(0, 0, 0, 0), MaxIterations(400)}, "out of range"},
		{"unknown source", body, never, []IterOption{Gate(9, 0, 0, 0)}, "unknown body task"},
		{"unknown slot", body, never, []IterOption{Gate(0, 3, 0, 0)}, "no output slot"},
		{"unknown target slot", body, never, []IterOption{Gate(0, 0, 0, 5)}, "no input slot"},
		{"double binding", body, never, []IterOption{Gate(0, 0, 0, 0), Carry(0, 0, 0, 0)}, "both gate and carry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Iterate(tc.body, tc.pred, tc.opts...)
			if err == nil {
				t.Fatalf("accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Uncovered external input.
	two := NewExplicitGraph([]Task{{
		Id: 0, Callback: cbCount,
		Incoming: []TaskId{ExternalInput, ExternalInput},
		Outgoing: [][]TaskId{nil},
	}})
	if _, err := Iterate(two, never, Gate(0, 0, 0, 0)); err == nil || !strings.Contains(err.Error(), "no Gate/Carry feeds it") {
		t.Fatalf("uncovered external input accepted: %v", err)
	}
}

func TestIterativeMapIsIterationStable(t *testing.T) {
	body := counterBody(t)
	never := func(int, map[TaskId][]Payload) (bool, error) { return false, nil }
	ig, err := Iterate(body, never, MaxIterations(6), Gate(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	m := NewIterativeMap(4, ig)
	want := m.Shard(IterId(0, 0))
	for k := 1; k < 6; k++ {
		if got := m.Shard(IterId(k, 0)); got != want {
			t.Fatalf("body task moved from shard %d to %d at iteration %d", want, got, k)
		}
	}
	for _, id := range ig.TaskIds() {
		if s := m.Shard(id); s < 0 || s >= 4 {
			t.Fatalf("task %d mapped to out-of-range shard %d", id, s)
		}
	}
}

func TestDeadTokenHelpers(t *testing.T) {
	d := DeadToken()
	if !IsDead(d) {
		t.Fatal("DeadToken not recognized by IsDead")
	}
	if IsDead(u32(7)) || IsDead(Buffer(nil)) || IsDead(Object(42)) {
		t.Fatal("live payload classified dead")
	}
	// A wire round-trip must preserve deadness.
	w, err := d.WireForm()
	if err != nil {
		t.Fatal(err)
	}
	if !IsDead(w.Own()) {
		t.Fatal("dead token lost its identity across the wire form")
	}
}

func TestSelectBranchAndCancelDead(t *testing.T) {
	task := Task{
		Id:       1,
		Outgoing: [][]TaskId{{2}, {3}, {4}},
		Cond:     []int{0, 1, -1},
		Branches: 2,
	}
	out, err := SelectBranch(task, 0, []Payload{u32(1), u32(2), u32(3)})
	if err != nil {
		t.Fatal(err)
	}
	if IsDead(out[0]) || !IsDead(out[1]) || IsDead(out[2]) {
		t.Fatalf("branch 0: slot liveness wrong: %v", out)
	}
	if _, err := SelectBranch(task, 5, []Payload{u32(1), u32(2), u32(3)}); err == nil {
		t.Fatal("out-of-range branch accepted")
	}
	if _, err := SelectBranch(Task{Id: 9, Outgoing: [][]TaskId{nil}}, 0, []Payload{u32(1)}); err == nil {
		t.Fatal("SelectBranch on unconditional task accepted")
	}

	dead, cancelled := CancelDead(task, []Payload{u32(1), DeadToken()})
	if !cancelled {
		t.Fatal("dead input did not cancel")
	}
	if len(dead) != 3 {
		t.Fatalf("cancelled task emitted %d outputs, want 3", len(dead))
	}
	for _, p := range dead {
		if !IsDead(p) {
			t.Fatal("cancelled output is live")
		}
	}
	if _, cancelled := CancelDead(task, []Payload{u32(1), u32(2)}); cancelled {
		t.Fatal("live inputs cancelled")
	}
}

// TestSerialConditionalBranch runs a two-branch router through the serial
// controller: only the chosen branch's consumer executes, the other is
// cancelled and its sink drops.
func TestSerialConditionalBranch(t *testing.T) {
	const (
		cbRoute CallbackId = 1
		cbSide  CallbackId = 2
	)
	router := Task{
		Id: 0, Callback: cbRoute,
		Incoming: []TaskId{ExternalInput},
		Outgoing: [][]TaskId{{1}, {2}},
		Cond:     []int{0, 1},
		Branches: 2,
	}
	left := Task{Id: 1, Callback: cbSide, Incoming: []TaskId{0}, Outgoing: [][]TaskId{nil}}
	right := Task{Id: 2, Callback: cbSide, Incoming: []TaskId{0}, Outgoing: [][]TaskId{nil}}
	g := NewExplicitGraph([]Task{router, left, right})

	for _, branch := range []int{0, 1} {
		s := NewSerial()
		if err := s.Initialize(g, nil); err != nil {
			t.Fatal(err)
		}
		log := NewExecutionLog()
		s.Observer = log
		br := branch
		s.RegisterCallback(cbRoute, func(in []Payload, id TaskId) ([]Payload, error) {
			tk, _ := g.Task(id)
			return SelectBranch(tk, br, []Payload{u32(10), u32(20)})
		})
		s.RegisterCallback(cbSide, func(in []Payload, _ TaskId) ([]Payload, error) {
			return []Payload{in[0]}, nil
		})
		res, err := s.Run(map[TaskId][]Payload{0: {u32(0)}})
		if err != nil {
			t.Fatal(err)
		}
		want, loser := TaskId(1), TaskId(2)
		if branch == 1 {
			want, loser = 2, 1
		}
		if len(res[want]) != 1 || len(res[loser]) != 0 {
			t.Fatalf("branch %d: results %v, want only task %d live", branch, res, want)
		}
		if log.Executions(loser) != 0 {
			t.Fatalf("branch %d: cancelled task %d fired the observer", branch, loser)
		}
		if log.Executions(want) != 1 {
			t.Fatalf("branch %d: live task %d executed %d times", branch, want, log.Executions(want))
		}
	}
}

func TestValidateCycleErrorCitesPath(t *testing.T) {
	// 0 -> 1 -> 2 -> 0
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 1, Incoming: []TaskId{2}, Outgoing: [][]TaskId{{1}}},
		{Id: 1, Callback: 1, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{2}}},
		{Id: 2, Callback: 1, Incoming: []TaskId{1}, Outgoing: [][]TaskId{{0}}},
	})
	err := Validate(g)
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("cycle produced %T (%v), want *CycleError", err, err)
	}
	if len(ce.Path) < 4 || ce.Path[0] != ce.Path[len(ce.Path)-1] {
		t.Fatalf("cycle path %v does not close", ce.Path)
	}
	// Each step must be a real dataflow edge.
	for i := 0; i+1 < len(ce.Path); i++ {
		pt, _ := g.Task(ce.Path[i])
		if !taskLists(pt.Outgoing, ce.Path[i+1]) {
			t.Fatalf("cycle path step %d -> %d is not an edge", ce.Path[i], ce.Path[i+1])
		}
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle error text %q lost the keyword", err)
	}
}

func TestValidateCondErrors(t *testing.T) {
	base := func() []Task {
		return []Task{
			{Id: 0, Callback: 1, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}, {2}}},
			{Id: 1, Callback: 1, Incoming: []TaskId{0}, Outgoing: [][]TaskId{nil}},
			{Id: 2, Callback: 1, Incoming: []TaskId{0}, Outgoing: [][]TaskId{nil}},
		}
	}
	cases := []struct {
		name   string
		mut    func(ts []Task)
		slot   int
		branch int
		reason string
	}{
		{"branches without cond", func(ts []Task) { ts[0].Branches = 2 }, -1, -1, "no Cond"},
		{"cond without branches", func(ts []Task) { ts[0].Cond = []int{0, 1} }, -1, -1, "Branches is 0"},
		{"length mismatch", func(ts []Task) { ts[0].Branches = 1; ts[0].Cond = []int{0} }, -1, -1, "entries"},
		{"branch out of range", func(ts []Task) { ts[0].Branches = 2; ts[0].Cond = []int{0, 7} }, 1, 7, "out of range"},
		{"dangling branch", func(ts []Task) { ts[0].Branches = 3; ts[0].Cond = []int{0, 1} }, -1, 2, "dangling"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := base()
			tc.mut(ts)
			err := Validate(NewExplicitGraph(ts))
			var ce *CondError
			if !errors.As(err, &ce) {
				t.Fatalf("got %T (%v), want *CondError", err, err)
			}
			if ce.Id != 0 {
				t.Fatalf("error cites task %d, want 0", ce.Id)
			}
			if ce.Slot != tc.slot || ce.Branch != tc.branch {
				t.Fatalf("error cites (slot %d, branch %d), want (%d, %d)", ce.Slot, ce.Branch, tc.slot, tc.branch)
			}
			if !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("error %q does not mention %q", err, tc.reason)
			}
		})
	}
	ts := base()
	ts[0].Branches = 2
	ts[0].Cond = []int{0, 1}
	if err := Validate(NewExplicitGraph(ts)); err != nil {
		t.Fatalf("well-formed conditional rejected: %v", err)
	}
}

// TestCompileReturnsIteratePlan: Iterate compiles the unrolled graph once
// and Compile hands that plan back, pointer-identical, every time; it
// describes the same graph a fresh compile of the unrolled tasks does.
func TestCompileReturnsIteratePlan(t *testing.T) {
	never := func(int, map[TaskId][]Payload) (bool, error) { return false, nil }
	ig, err := Iterate(counterBody(t), never, MaxIterations(4), Gate(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(ig)
	if err != nil {
		t.Fatal(err)
	}
	if p != ig.plan {
		t.Fatal("Compile(ig) is not the plan Iterate built")
	}
	if again, _ := Compile(ig); again != p {
		t.Fatal("a second Compile(ig) returned another plan")
	}
	fresh, err := Compile(Materialize(ig))
	if err != nil {
		t.Fatal(err)
	}
	cbs := ig.Callbacks()
	if GraphFingerprint(p, cbs) != GraphFingerprint(fresh, cbs) || p.Max() != fresh.Max() {
		t.Error("Iterate's plan differs from a fresh compile of its tasks")
	}
}
