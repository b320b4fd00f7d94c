package core

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// sumToSlots returns a callback that sums its uint64 inputs and fans the
// result to n output slots.
func sumToSlots(n int) Callback {
	return func(in []Payload, id TaskId) ([]Payload, error) {
		var sum uint64
		for _, p := range in {
			sum += binary.LittleEndian.Uint64(p.Data)
		}
		out := make([]Payload, n)
		for i := range out {
			b := make([]byte, 8)
			binary.LittleEndian.PutUint64(b, sum)
			out[i] = Buffer(b)
		}
		return out, nil
	}
}

func u64(v uint64) Payload {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return Buffer(b)
}

func TestSerialDiamondComputesSum(t *testing.T) {
	g := diamondGraph()
	s := NewSerial()
	if err := s.Initialize(g, nil); err != nil {
		t.Fatalf("Initialize: %v", err)
	}
	for _, cb := range g.Callbacks() {
		if err := s.RegisterCallback(cb, sumToSlots(1)); err != nil {
			t.Fatalf("RegisterCallback: %v", err)
		}
	}
	out, err := s.Run(map[TaskId][]Payload{0: {u64(3)}, 1: {u64(4)}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 3+4=7 at task 2, fans to 3 and 4 (each 7), 5 sums to 14.
	res, ok := out[5]
	if !ok || len(res) != 1 {
		t.Fatalf("results = %v", out)
	}
	if got := binary.LittleEndian.Uint64(res[0].Data); got != 14 {
		t.Errorf("root sum = %d, want 14", got)
	}
}

func TestSerialExecutesEachTaskOnceInDependencyOrder(t *testing.T) {
	g := diamondGraph()
	s := NewSerial()
	log := NewExecutionLog()
	s.Observer = log
	if err := s.Initialize(g, nil); err != nil {
		t.Fatal(err)
	}
	for _, cb := range g.Callbacks() {
		s.RegisterCallback(cb, sumToSlots(1))
	}
	if _, err := s.Run(map[TaskId][]Payload{0: {u64(1)}, 1: {u64(1)}}); err != nil {
		t.Fatal(err)
	}
	if log.Len() != g.Size() {
		t.Fatalf("executed %d tasks, want %d", log.Len(), g.Size())
	}
	pos := make(map[TaskId]int)
	for i, id := range log.Order {
		pos[id] = i
	}
	for _, id := range g.TaskIds() {
		if log.Executions(id) != 1 {
			t.Errorf("task %d executed %d times", id, log.Executions(id))
		}
		task, _ := g.Task(id)
		for _, p := range task.Producers() {
			if pos[p] > pos[id] {
				t.Errorf("task %d ran before its producer %d", id, p)
			}
		}
	}
}

func TestSerialRunBeforeInitialize(t *testing.T) {
	s := NewSerial()
	if _, err := s.Run(nil); !errors.Is(err, ErrNotInitialized) {
		t.Errorf("Run before Initialize = %v", err)
	}
	if err := s.RegisterCallback(0, sumToSlots(1)); !errors.Is(err, ErrNotInitialized) {
		t.Errorf("RegisterCallback before Initialize = %v", err)
	}
}

func TestSerialMissingCallback(t *testing.T) {
	g := diamondGraph()
	s := NewSerial()
	s.Initialize(g, nil)
	s.RegisterCallback(0, sumToSlots(1)) // only one of four types
	if _, err := s.Run(map[TaskId][]Payload{0: {u64(1)}, 1: {u64(1)}}); !errors.Is(err, ErrUnregisteredCallback) {
		t.Errorf("Run with missing callbacks = %v", err)
	}
}

func TestSerialCallbackErrorPropagates(t *testing.T) {
	g := lineGraph(2)
	s := NewSerial()
	s.Initialize(g, nil)
	boom := errors.New("boom")
	s.RegisterCallback(0, func(in []Payload, id TaskId) ([]Payload, error) {
		if id == 1 {
			return nil, boom
		}
		return []Payload{Buffer([]byte{1})}, nil
	})
	if _, err := s.Run(map[TaskId][]Payload{0: {u64(1)}}); !errors.Is(err, boom) {
		t.Errorf("Run = %v, want boom", err)
	}
}

func TestSerialWrongOutputArity(t *testing.T) {
	g := lineGraph(2)
	s := NewSerial()
	s.Initialize(g, nil)
	s.RegisterCallback(0, func(in []Payload, id TaskId) ([]Payload, error) {
		return nil, nil // task 0 must emit 1 output
	})
	if _, err := s.Run(map[TaskId][]Payload{0: {u64(1)}}); err == nil {
		t.Error("Run should reject wrong output arity")
	}
}

func TestSerialInvalidGraphRejectedAtInitialize(t *testing.T) {
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{1}, Outgoing: [][]TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{0}}},
	})
	s := NewSerial()
	if err := s.Initialize(g, nil); err == nil {
		t.Error("Initialize should reject cyclic graphs")
	}
}

func TestSerialFanOutDeliversCopies(t *testing.T) {
	// Task 2 fans one output slot to 3 and 4; both mutate their input.
	// With copy-on-fan-out both must observe the original value.
	g := diamondGraph()
	s := NewSerial()
	s.Initialize(g, nil)
	seen := make(map[TaskId]uint64)
	s.RegisterCallback(0, sumToSlots(1))
	s.RegisterCallback(1, sumToSlots(1))
	s.RegisterCallback(2, func(in []Payload, id TaskId) ([]Payload, error) {
		seen[id] = binary.LittleEndian.Uint64(in[0].Data)
		in[0].Data[0] = 0xFF // mutate owned input
		return []Payload{u64(seen[id])}, nil
	})
	s.RegisterCallback(3, sumToSlots(1))
	if _, err := s.Run(map[TaskId][]Payload{0: {u64(5)}, 1: {u64(6)}}); err != nil {
		t.Fatal(err)
	}
	if seen[3] != 11 || seen[4] != 11 {
		t.Errorf("fan-out consumers saw %d and %d, want 11 and 11", seen[3], seen[4])
	}
}

// A callback owns its inputs, so it may return them (or a sub-slice) as its
// outputs; the run must route them before it recycles the input window.
func TestSerialRelayCallbackKeepsPayload(t *testing.T) {
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{0}, Outgoing: [][]TaskId{nil}},
	})
	s := NewSerial()
	if err := s.Initialize(g, nil); err != nil {
		t.Fatal(err)
	}
	s.RegisterCallback(0, func(in []Payload, _ TaskId) ([]Payload, error) { return in, nil })
	out, err := s.Run(map[TaskId][]Payload{0: {Buffer([]byte("hello"))}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[1]) != 1 || string(out[1][0].Data) != "hello" {
		t.Errorf("sink = %v, want one payload \"hello\"", out[1])
	}
}

func TestDataflowStateDeliverSlots(t *testing.T) {
	// A consumer with two slots from the same producer fills them in order.
	g := NewExplicitGraph([]Task{
		{Id: 0, Callback: 0, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}, {1}}},
		{Id: 1, Callback: 0, Incoming: []TaskId{0, 0}, Outgoing: [][]TaskId{{}}},
	})
	st := NewDataflowState(mustCompile(t, g), nil)
	if st.Ready(1) {
		t.Error("task 1 ready before any delivery")
	}
	if err := st.Deliver(1, 0, Buffer([]byte{1})); err != nil {
		t.Fatal(err)
	}
	if st.Ready(1) {
		t.Error("task 1 ready after one of two inputs")
	}
	if err := st.Deliver(1, 0, Buffer([]byte{2})); err != nil {
		t.Fatal(err)
	}
	in, ok := st.Take(1)
	if !ok {
		t.Fatal("task 1 not ready after both inputs")
	}
	if in[0].Data[0] != 1 || in[1].Data[0] != 2 {
		t.Errorf("slots = %v, %v; want FIFO fill", in[0].Data, in[1].Data)
	}
}

func TestDataflowStateRejectsUnexpectedProducer(t *testing.T) {
	g := lineGraph(2)
	st := NewDataflowState(mustCompile(t, g), nil)
	if err := st.Deliver(1, 99, Buffer(nil)); err == nil {
		t.Error("Deliver from unlisted producer should fail")
	}
	if err := st.Deliver(99, 0, Buffer(nil)); err == nil {
		t.Error("Deliver to unknown task should fail")
	}
	// Overfill: deliver twice from the same single-slot producer.
	if err := st.Deliver(1, 0, Buffer(nil)); err != nil {
		t.Fatal(err)
	}
	if err := st.Deliver(1, 0, Buffer(nil)); err == nil {
		t.Error("second delivery to a filled slot should fail")
	}
}

func TestDataflowStateTakeNotReady(t *testing.T) {
	g := lineGraph(2)
	st := NewDataflowState(mustCompile(t, g), nil)
	if _, ok := st.Take(1); ok {
		t.Error("Take on not-ready task should report !ok")
	}
	if _, ok := st.Take(99); ok {
		t.Error("Take on unknown task should report !ok")
	}
}

// Property: a serial run over a random-length chain of +1 callbacks returns
// exactly length(chain) added to the seed.
func TestSerialChainProperty(t *testing.T) {
	inc := func(in []Payload, id TaskId) ([]Payload, error) {
		v := binary.LittleEndian.Uint64(in[0].Data)
		return []Payload{u64(v + 1)}, nil
	}
	check := func(n8, seed8 uint8) bool {
		n := int(n8%32) + 1
		seed := uint64(seed8)
		g := lineGraph(n)
		s := NewSerial()
		if err := s.Initialize(g, nil); err != nil {
			return false
		}
		s.RegisterCallback(0, inc)
		out, err := s.Run(map[TaskId][]Payload{0: {u64(seed)}})
		if err != nil {
			return false
		}
		res := out[TaskId(n-1)]
		return len(res) == 1 && binary.LittleEndian.Uint64(res[0].Data) == seed+uint64(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
