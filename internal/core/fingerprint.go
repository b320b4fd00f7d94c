package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// Fingerprint is a canonical digest of a task graph (and optionally the
// callback ids registered against it). Two processes that compute the same
// fingerprint agree on every task id, every edge, the fan-out lists of every
// output slot and the callback id of every task — which is exactly what two
// ranks of a distributed run must agree on before exchanging messages. The
// wire transport's rendezvous handshake rejects peers whose fingerprints
// differ, catching mismatched binaries or configurations at connection time
// instead of as a hang or a corrupted dataflow.
type Fingerprint [sha256.Size]byte

// String returns the hex form of the fingerprint.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// IsZero reports whether the fingerprint is unset.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// GraphFingerprint computes the canonical fingerprint of a task graph:
// a stable hash over the graph's size, its task ids in enumeration order,
// and for every task its callback id, its producer list (slot order), its
// per-slot consumer lists (slot and fan-out order) and its conditional-edge
// declaration (branch count plus per-slot branch assignment), plus the
// graph's declared callback set and the callback ids in registered (sorted
// order of the given slice). The encoding is length-prefixed throughout, so
// distinct structures can never collide by concatenation.
//
// registered may be nil when only the graph structure matters; passing the
// registry's callback ids additionally pins which task types both sides have
// implementations for. The fingerprint is independent of how the graph was
// built — any two TaskGraph implementations describing the same logical
// dataflow (e.g. a procedural graph and its Materialize'd copy) fingerprint
// identically.
func GraphFingerprint(g TaskGraph, registered []CallbackId) Fingerprint {
	h := sha256.New()
	var buf [8]byte
	wu64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}

	h.Write([]byte("babelflow-graph-fingerprint-v2"))
	ids := g.TaskIds()
	wu64(uint64(len(ids)))
	for _, id := range ids {
		t, ok := g.Task(id)
		if !ok {
			// A graph that enumerates an id it cannot return is invalid;
			// fold the inconsistency into the digest rather than guessing.
			wu64(uint64(id))
			wu64(^uint64(0))
			continue
		}
		wu64(uint64(t.Id))
		wu64(uint64(t.Callback))
		wu64(uint64(len(t.Incoming)))
		for _, p := range t.Incoming {
			wu64(uint64(p))
		}
		wu64(uint64(len(t.Outgoing)))
		for _, slot := range t.Outgoing {
			wu64(uint64(len(slot)))
			for _, c := range slot {
				wu64(uint64(c))
			}
		}
		// Conditional edges change which successors run, so two peers must
		// agree on them exactly. Branch indices are offset by one so the
		// unconditional marker (-1) encodes as 0.
		wu64(uint64(t.Branches))
		wu64(uint64(len(t.Cond)))
		for _, b := range t.Cond {
			wu64(uint64(b + 1))
		}
	}
	cbs := g.Callbacks()
	wu64(uint64(len(cbs)))
	for _, cb := range cbs {
		wu64(uint64(cb))
	}

	reg := append([]CallbackId(nil), registered...)
	sort.Slice(reg, func(i, j int) bool { return reg[i] < reg[j] })
	wu64(uint64(len(reg)))
	for _, cb := range reg {
		wu64(uint64(cb))
	}

	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// Ids returns the sorted callback ids currently registered — the registry's
// contribution to a graph fingerprint.
func (r *Registry) Ids() []CallbackId {
	fns := r.load()
	ids := make([]CallbackId, 0, len(fns))
	for cb := range fns {
		ids = append(ids, cb)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
