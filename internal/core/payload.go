package core

import "sync/atomic"

// Payload is the unit of data exchanged between tasks. Following the paper,
// a Payload is either a binary buffer (Data) or a pointer to an in-memory
// object (Object), or both when an object has already been serialized.
//
// Controllers pass a Payload by pointer (in-memory message) to a consumer on
// the producer's shard: to every such consumer when Object is Immutable,
// else to the slot's last consumer only (FanOut). Every other consumer gets
// the wire form, which requires either Data to be populated or Object to
// implement Serializable.
//
// Each task assumes ownership of its input payloads and relinquishes
// ownership of its outputs to the controller; callbacks must not retain or
// mutate payloads after returning them, nor ever mutate an Immutable input.
// The routing fast path depends on this hand-off: a relinquished output
// buffer may be forwarded to a single consumer without a defensive copy, or
// published read-only to several consumers through a refcounted shared
// wire form (SharedPayload).
type Payload struct {
	// Data is the binary representation of the payload, if available.
	Data []byte
	// Object is the in-memory representation of the payload, if available.
	Object any

	// shared, when non-nil, marks Data as a refcounted wire form that is
	// read-only until Own detaches a private copy for the consumer.
	shared *sharedWire
}

// sharedWire is the refcounted immutable wire form behind copy-on-fan-out:
// one serialization shared by every consumer of an output slot. Each
// consumer detaches an owned copy via Own (or drops its reference via
// Release); the final reference returns the buffer to the arena.
type sharedWire struct {
	refs   atomic.Int32
	buf    []byte
	donate func([]byte) // gives buf to the arena when the last reference drops
}

func (w *sharedWire) release() {
	if w.refs.Add(-1) == 0 && w.donate != nil {
		w.donate(w.buf)
	}
}

// Serializable is implemented by in-memory payload objects that can encode
// themselves to a binary buffer for transfer across shard boundaries.
// Serialize must return a freshly allocated buffer that the caller assumes
// ownership of — it must not alias the object's internal state. The
// matching deserialization routine lives in the consuming callback, which
// knows the concrete type it expects on each input slot.
type Serializable interface {
	Serialize() []byte
}

// Immutable marks a payload object no callback mutates, so one pointer to
// it (and to its payload's Data) may go to several consumers at once.
type Immutable interface{ Immutable() }

// Buffer returns a payload wrapping a binary buffer.
func Buffer(b []byte) Payload { return Payload{Data: b} }

// Object returns a payload wrapping an in-memory object.
func Object(obj any) Payload { return Payload{Object: obj} }

// Empty reports whether the payload carries neither a buffer nor an object.
func (p Payload) Empty() bool { return p.Data == nil && p.Object == nil }

// Size returns the wire size of the payload in bytes: the length of Data.
// An object-only payload counts 0 and is not serialized to be counted: no
// controller hands one to another rank, because routing and FanOut send the
// wire form, so it only ever travels as a rank-local pointer hand-off.
func (p Payload) Size() int { return len(p.Data) }

// Wire returns the binary representation of the payload, serializing the
// object if necessary. It returns an ErrNotSerializable error when the
// payload holds only an object that does not implement Serializable.
func (p Payload) Wire() ([]byte, error) {
	if p.Data != nil {
		return p.Data, nil
	}
	if p.Object == nil {
		return nil, nil
	}
	if s, ok := p.Object.(Serializable); ok {
		return s.Serialize(), nil
	}
	return nil, ErrNotSerializable
}

// WireForm returns a payload carrying only the binary form of p, without a
// defensive copy: Data is forwarded as-is and an object is serialized into
// a fresh buffer. It is the zero-copy hand-off for a single consumer — the
// producer relinquished the buffer, so the consumer may assume ownership
// directly. Callers that publish the result to more than one consumer must
// use SharedPayload instead.
func (p Payload) WireForm() (Payload, error) {
	b, err := p.Wire()
	if err != nil {
		return Payload{}, err
	}
	return Payload{Data: b}, nil
}

// CloneForWire returns a payload that is safe to hand to a different shard:
// the in-memory object is dropped and replaced by its binary representation,
// copied so the receiver owns the buffer even when Data aliased the
// producer's memory. An object payload is not double-buffered: Serialize
// already returns an owned buffer (see Serializable), which is forwarded
// directly.
func (p Payload) CloneForWire() (Payload, error) {
	if p.Data == nil && p.Object != nil {
		if s, ok := p.Object.(Serializable); ok {
			return Payload{Data: s.Serialize()}, nil
		}
		return Payload{}, ErrNotSerializable
	}
	cp := make([]byte, len(p.Data))
	copy(cp, p.Data)
	return Payload{Data: cp}, nil
}

// SharedPayload wraps the wire form of p for fan-out to refs consumers: the
// payload is serialized exactly once and the resulting buffer is shared,
// immutable, by every consumer. Each consumer must detach its private view
// with Own (delivery does this) or drop it with Release; the combined count
// of Own and Release calls across all copies of the returned payload must
// equal refs.
//
// aliased declares that the original buffer is also reachable outside the
// wrapper (e.g. the same slot is pointer-passed to a local consumer); the
// wire form is then copied into an arena buffer up front so concurrent
// mutation by the pointer-passed consumer cannot race with fan-out reads.
func SharedPayload(p Payload, refs int, aliased bool) (Payload, error) {
	wire, err := p.Wire()
	if err != nil {
		return Payload{}, err
	}
	w := &sharedWire{buf: wire}
	// A fresh serialization (p.Data == nil) is exclusively ours and can be
	// donated to the arena when the last consumer detaches. A relinquished
	// Data buffer is wrapped in place — unless it is still aliased, in
	// which case an arena copy isolates the fan-out readers.
	switch {
	case p.Data == nil:
		w.donate = donateBuffer
	case aliased:
		w.buf = GrabBuffer(len(wire))
		copy(w.buf, wire)
		w.donate = ReleaseBuffer
	}
	w.refs.Store(int32(refs))
	return Payload{Data: w.buf, shared: w}, nil
}

// Own returns a payload the caller exclusively owns. For ordinary payloads
// it is the identity; for a shared wire form it detaches a private copy and
// drops one reference. A consumer that still shares the buffer always
// copies, and releases its reference only after the copy completes — so
// when the count reads 1, every other consumer has finished detaching and
// the sole remaining holder may take the buffer itself without a copy.
func (p Payload) Own() Payload {
	w := p.shared
	if w == nil {
		return p
	}
	if w.refs.Load() == 1 {
		// Hand-off: ownership transfers to the caller, so the buffer must
		// not also be donated to the arena.
		w.refs.Store(0)
		return Payload{Data: w.buf}
	}
	cp := make([]byte, len(w.buf))
	copy(cp, w.buf)
	w.release()
	return Payload{Data: cp}
}

// Release drops the caller's reference to a shared wire form without taking
// a copy — the hand-off for payloads that will never reach a consumer
// (cancelled runs, dropped messages). It is a no-op for ordinary payloads.
func (p Payload) Release() {
	if p.shared != nil {
		p.shared.release()
	}
}

// Shared reports whether the payload is a refcounted shared wire form that
// has not yet been detached by Own.
func (p Payload) Shared() bool { return p.shared != nil }
