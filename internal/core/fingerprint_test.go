package core

import (
	"testing"
)

// chainGraph builds a small explicit graph: 0 -> 1 -> 2 with an extra
// fan-out edge 0 -> 2 on a second output slot.
func chainGraph() *ExplicitGraph {
	return NewExplicitGraph([]Task{
		{Id: 0, Callback: 1, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}, {2}}},
		{Id: 1, Callback: 2, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{2}}},
		{Id: 2, Callback: 3, Incoming: []TaskId{0, 1}, Outgoing: [][]TaskId{{}}},
	})
}

func TestFingerprintDeterministic(t *testing.T) {
	a := GraphFingerprint(chainGraph(), nil)
	b := GraphFingerprint(chainGraph(), nil)
	if a != b {
		t.Errorf("same graph fingerprints differ: %s vs %s", a, b)
	}
	if a.IsZero() {
		t.Error("fingerprint is zero")
	}
	if len(a.String()) != 64 {
		t.Errorf("hex form = %q", a.String())
	}
}

func TestFingerprintIndependentOfRepresentation(t *testing.T) {
	g := chainGraph()
	m := Materialize(g)
	if a, b := GraphFingerprint(g, nil), GraphFingerprint(m, nil); a != b {
		t.Errorf("materialized copy fingerprints differently: %s vs %s", a, b)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := GraphFingerprint(chainGraph(), nil)

	// Different callback id on one task.
	cb := NewExplicitGraph([]Task{
		{Id: 0, Callback: 1, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}, {2}}},
		{Id: 1, Callback: 7, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{2}}},
		{Id: 2, Callback: 3, Incoming: []TaskId{0, 1}, Outgoing: [][]TaskId{{}}},
	})
	if GraphFingerprint(cb, nil) == base {
		t.Error("callback change not reflected in fingerprint")
	}

	// Same edges, different fan-out slot split: {1,2} on one slot instead of
	// {1},{2} on two.
	slots := NewExplicitGraph([]Task{
		{Id: 0, Callback: 1, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1, 2}}},
		{Id: 1, Callback: 2, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{2}}},
		{Id: 2, Callback: 3, Incoming: []TaskId{0, 1}, Outgoing: [][]TaskId{{}}},
	})
	if GraphFingerprint(slots, nil) == base {
		t.Error("fan-out slot split not reflected in fingerprint")
	}

	// Extra task.
	extra := NewExplicitGraph([]Task{
		{Id: 0, Callback: 1, Incoming: []TaskId{ExternalInput}, Outgoing: [][]TaskId{{1}, {2}}},
		{Id: 1, Callback: 2, Incoming: []TaskId{0}, Outgoing: [][]TaskId{{2}}},
		{Id: 2, Callback: 3, Incoming: []TaskId{0, 1}, Outgoing: [][]TaskId{{3}}},
		{Id: 3, Callback: 3, Incoming: []TaskId{2}, Outgoing: [][]TaskId{{}}},
	})
	if GraphFingerprint(extra, nil) == base {
		t.Error("extra task not reflected in fingerprint")
	}
}

func TestFingerprintRegisteredCallbacks(t *testing.T) {
	g := chainGraph()
	bare := GraphFingerprint(g, nil)
	withReg := GraphFingerprint(g, []CallbackId{1, 2, 3})
	if bare == withReg {
		t.Error("registered callback set not reflected in fingerprint")
	}
	// Order of the registered slice must not matter.
	if withReg != GraphFingerprint(g, []CallbackId{3, 1, 2}) {
		t.Error("fingerprint depends on registration order")
	}

	reg := new(Registry)
	noop := func(in []Payload, id TaskId) ([]Payload, error) { return nil, nil }
	reg.Register(3, noop)
	reg.Register(1, noop)
	reg.Register(2, noop)
	if withReg != GraphFingerprint(g, reg.Ids()) {
		t.Error("Registry.Ids() does not reproduce the explicit callback set")
	}
}
