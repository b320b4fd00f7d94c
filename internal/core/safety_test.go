package core

import (
	"errors"
	"strings"
	"testing"
)

func TestSafeInvokeConvertsPanic(t *testing.T) {
	fn := func(in []Payload, id TaskId) ([]Payload, error) {
		panic("kaboom")
	}
	out, err := SafeInvoke(fn, nil, 7)
	if out != nil {
		t.Error("panicking callback should return nil outputs")
	}
	if err == nil || !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "task 7") {
		t.Errorf("err = %v", err)
	}
}

func TestSafeInvokePassesThrough(t *testing.T) {
	boom := errors.New("boom")
	fn := func(in []Payload, id TaskId) ([]Payload, error) {
		return []Payload{Buffer([]byte{1})}, boom
	}
	out, err := SafeInvoke(fn, nil, 1)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if len(out) != 1 {
		t.Errorf("out = %v", out)
	}
}

func TestSerialRecoversCallbackPanic(t *testing.T) {
	g := lineGraph(3)
	s := NewSerial()
	s.Initialize(g, nil)
	s.RegisterCallback(0, func(in []Payload, id TaskId) ([]Payload, error) {
		if id == 1 {
			panic("task 1 blew up")
		}
		return []Payload{Buffer([]byte{1})}, nil
	})
	_, err := s.Run(map[TaskId][]Payload{0: {Buffer([]byte{0})}})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("Run = %v, want panic converted to error", err)
	}
}

// TestStep pins the task-step kernel every controller shares: what runs,
// what is skipped, and which failures surface as errors.
func TestStep(t *testing.T) {
	const cb CallbackId = 3
	task := Task{Id: 9, Callback: cb, Incoming: []TaskId{1, 2}, Outgoing: [][]TaskId{{10}, nil}}
	live := func() []Payload { return []Payload{Buffer([]byte{1}), Buffer([]byte{2})} }
	two := func(in []Payload, _ TaskId) ([]Payload, error) {
		return []Payload{in[0], in[1]}, nil
	}
	boom := errors.New("boom")

	for _, tc := range []struct {
		name      string
		fn        Callback // nil leaves cb unregistered
		in        []Payload
		cancelled bool
		wantErr   func(error) bool
	}{
		{name: "runs", fn: two, in: live()},
		{name: "dead input skips callback and observer", fn: func([]Payload, TaskId) ([]Payload, error) {
			t.Error("callback ran on a dead input")
			return nil, nil
		}, in: []Payload{Buffer([]byte{1}), DeadToken()}, cancelled: true},
		{name: "unregistered callback", in: live(),
			wantErr: func(err error) bool { return errors.Is(err, ErrUnregisteredCallback) }},
		{name: "callback error", fn: func([]Payload, TaskId) ([]Payload, error) { return nil, boom }, in: live(),
			wantErr: func(err error) bool { return errors.Is(err, boom) && strings.Contains(err.Error(), "task 9") }},
		{name: "panic", fn: func([]Payload, TaskId) ([]Payload, error) { panic("kaboom") }, in: live(),
			wantErr: func(err error) bool { return strings.Contains(err.Error(), "panicked") }},
		{name: "wrong arity", fn: func(in []Payload, _ TaskId) ([]Payload, error) { return in[:1], nil }, in: live(),
			wantErr: func(err error) bool { return strings.Contains(err.Error(), "produced 1 outputs") }},
	} {
		reg := new(Registry)
		if tc.fn != nil {
			reg.Register(cb, tc.fn)
		}
		log := NewExecutionLog()
		out, cancelled, err := Step(reg, log, task, tc.in, 4)
		if tc.wantErr != nil {
			if err == nil || !tc.wantErr(err) || out != nil || log.Len() != 0 {
				t.Errorf("%s: out %v, err %v, %d observed", tc.name, out, err, log.Len())
			}
			continue
		}
		if err != nil || cancelled != tc.cancelled || len(out) != len(task.Outgoing) {
			t.Errorf("%s: out %v, cancelled %v, err %v", tc.name, out, cancelled, err)
			continue
		}
		if tc.cancelled {
			if !IsDead(out[0]) || !IsDead(out[1]) || log.Len() != 0 {
				t.Errorf("%s: out %v, %d observed; want dead tokens and a silent observer", tc.name, out, log.Len())
			}
		} else if log.Executions(9) != 1 || log.Shards[9] != 4 {
			t.Errorf("%s: observer saw %d executions on shard %d", tc.name, log.Executions(9), log.Shards[9])
		}
	}

	// A nil observer is allowed, and a shared fan-out wire form reaches the
	// callback detached: the callback owns its inputs.
	reg := new(Registry)
	reg.Register(cb, func(in []Payload, _ TaskId) ([]Payload, error) {
		if in[0].Shared() {
			t.Error("callback received a shared wire form")
		}
		return two(in, 0)
	})
	shared, err := SharedPayload(Buffer([]byte{7}), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Step(reg, nil, task, []Payload{shared, Buffer([]byte{2})}, 0); err != nil {
		t.Fatal(err)
	}
	shared.Release()
}
