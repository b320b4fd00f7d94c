package core

import (
	"testing"
)

func TestTaskDegreesAndLeafRoot(t *testing.T) {
	task := Task{
		Id:       7,
		Callback: 1,
		Incoming: []TaskId{ExternalInput, ExternalInput},
		Outgoing: [][]TaskId{{3, 4}, {}},
	}
	if got := task.InDegree(); got != 2 {
		t.Errorf("InDegree = %d, want 2", got)
	}
	if got := task.OutDegree(); got != 2 {
		t.Errorf("OutDegree = %d, want 2", got)
	}
	if !task.IsLeaf() {
		t.Error("task with only external inputs should be a leaf")
	}
	if !task.IsRoot() {
		t.Error("task with an empty output slot should be a root")
	}
}

func TestTaskNotLeafWithInternalProducer(t *testing.T) {
	task := Task{Id: 1, Incoming: []TaskId{ExternalInput, 0}}
	if task.IsLeaf() {
		t.Error("task with an internal producer must not be a leaf")
	}
}

func TestTaskNoOutputsIsRoot(t *testing.T) {
	task := Task{Id: 1}
	if !task.IsRoot() {
		t.Error("task without output slots is a root")
	}
	if !task.IsLeaf() {
		t.Error("task without input slots is a leaf")
	}
}

func TestTaskConsumersProducersDedup(t *testing.T) {
	task := Task{
		Id:       5,
		Incoming: []TaskId{2, 2, ExternalInput, 1},
		Outgoing: [][]TaskId{{9, 8}, {8}},
	}
	cons := task.Consumers()
	if len(cons) != 2 || cons[0] != 8 || cons[1] != 9 {
		t.Errorf("Consumers = %v, want [8 9]", cons)
	}
	prods := task.Producers()
	if len(prods) != 2 || prods[0] != 1 || prods[1] != 2 {
		t.Errorf("Producers = %v, want [1 2]", prods)
	}
}

func TestTaskCloneIsDeep(t *testing.T) {
	orig := Task{
		Id:       3,
		Callback: 2,
		Incoming: []TaskId{0, 1},
		Outgoing: [][]TaskId{{4}},
	}
	c := orig.Clone()
	c.Incoming[0] = 99
	c.Outgoing[0][0] = 99
	if orig.Incoming[0] != 0 {
		t.Error("Clone shares Incoming storage")
	}
	if orig.Outgoing[0][0] != 4 {
		t.Error("Clone shares Outgoing storage")
	}
}

func TestNewTask(t *testing.T) {
	task := NewTask(11, 3)
	if task.Id != 11 || task.Callback != 3 {
		t.Errorf("NewTask = %+v", task)
	}
	if len(task.Incoming) != 0 || len(task.Outgoing) != 0 {
		t.Error("NewTask should have no edges")
	}
}

func TestTaskStringMentionsId(t *testing.T) {
	s := Task{Id: 42}.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestPayloadBufferAndObject(t *testing.T) {
	b := Buffer([]byte{1, 2, 3})
	if b.Empty() || b.Size() != 3 {
		t.Errorf("buffer payload: empty=%v size=%d", b.Empty(), b.Size())
	}
	o := Object("hello")
	if o.Empty() {
		t.Error("object payload reported empty")
	}
	var z Payload
	if !z.Empty() || z.Size() != 0 {
		t.Error("zero payload should be empty with size 0")
	}
}

type serObj struct{ v byte }

func (s serObj) Serialize() []byte { return []byte{s.v, s.v} }

func TestPayloadWireSerializesObject(t *testing.T) {
	p := Object(serObj{7})
	w, err := p.Wire()
	if err != nil {
		t.Fatalf("Wire: %v", err)
	}
	if len(w) != 2 || w[0] != 7 {
		t.Errorf("Wire = %v", w)
	}
	// Size counts Data only: an object-only payload is a rank-local hand-off.
	if p.Size() != 0 {
		t.Errorf("Size = %d, want 0", p.Size())
	}
}

func TestPayloadWireErrorsOnOpaqueObject(t *testing.T) {
	p := Object(struct{ x int }{1})
	if _, err := p.Wire(); err == nil {
		t.Error("Wire should fail for a non-Serializable object")
	}
}

func TestPayloadCloneForWireCopies(t *testing.T) {
	buf := []byte{1, 2, 3}
	p := Buffer(buf)
	c, err := p.CloneForWire()
	if err != nil {
		t.Fatalf("CloneForWire: %v", err)
	}
	buf[0] = 9
	if c.Data[0] != 1 {
		t.Error("CloneForWire must copy the buffer")
	}
	if c.Object != nil {
		t.Error("CloneForWire must drop the object")
	}
}

func TestPayloadWireNilObject(t *testing.T) {
	var p Payload
	w, err := p.Wire()
	if err != nil || w != nil {
		t.Errorf("Wire on empty payload = %v, %v", w, err)
	}
}
