package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAttemptFirstFailWins races N Fails: exactly one error is kept, and
// Cancel has run by the time any Fail returns.
func TestAttemptFirstFailWins(t *testing.T) {
	const n = 16
	for iter := 0; iter < 200; iter++ {
		var cancels atomic.Int32
		att := Attempt{Cancel: func() { cancels.Add(1) }}
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range errs {
			errs[i] = fmt.Errorf("failure %d", i)
			wg.Add(1)
			go func(err error) {
				defer wg.Done()
				att.Fail(err)
				if cancels.Load() == 0 {
					t.Error("Fail returned before Cancel ran")
				}
				if att.Err() == nil {
					t.Error("Fail returned with no failure recorded")
				}
			}(errs[i])
		}
		wg.Wait()
		first := att.Err()
		att.Fail(errors.New("late"))
		if att.Err() != first {
			t.Fatalf("a later Fail replaced %v with %v", first, att.Err())
		}
		att.Sink(1, Buffer([]byte{1}))
		if sinks, err := att.Result(); err != first || sinks != nil {
			t.Fatalf("Result of a failed attempt = %v, %v; want nil, %v", sinks, err, first)
		}
	}
}

// TestAttemptSink checks the sink rule: dead tokens are dropped, live
// payloads keep the order they were recorded in, and an attempt without
// sinks still returns a map.
func TestAttemptSink(t *testing.T) {
	var att Attempt
	att.Sink(7, Buffer([]byte("a")))
	att.Sink(7, DeadToken())
	att.Sink(7, Buffer([]byte("b")))
	att.Sink(9, DeadToken())
	sinks, err := att.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := sinks[7]; len(got) != 2 || string(got[0].Data) != "a" || string(got[1].Data) != "b" {
		t.Errorf("task 7 sinks = %v, want [a b]", got)
	}
	if _, ok := sinks[9]; ok || len(sinks) != 1 {
		t.Errorf("sinks = %v: a dead token must leave no entry", sinks)
	}

	var empty Attempt
	if sinks, err := empty.Result(); err != nil || sinks == nil || len(sinks) != 0 {
		t.Errorf("Result of an idle attempt = %v, %v; want an empty map", sinks, err)
	}
}

// TestWatchContextStopJoins races cancellation against Result: once Result
// has returned, abort must never run (nor still be running).
func TestWatchContextStopJoins(t *testing.T) {
	for i := 0; i < 2000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var stopped, late atomic.Bool
		var att Attempt
		att.Watch(ctx, func(error) {
			runtime.Gosched()
			if stopped.Load() {
				late.Store(true)
			}
		})
		go cancel()
		att.Result()
		stopped.Store(true)
		runtime.Gosched()
		if late.Load() {
			t.Fatalf("iteration %d: abort ran after Result returned", i)
		}
	}
}

// TestAttemptWatchFails checks the watcher's usual wiring: a finished
// context fails the attempt with an error wrapping ErrCancelled, and a
// context that cannot end starts no watcher.
func TestAttemptWatchFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan struct{})
	att := Attempt{Cancel: func() { close(cancelled) }}
	att.Watch(ctx, att.Fail)
	cancel()
	<-cancelled
	if _, err := att.Result(); !errors.Is(err, ErrCancelled) {
		t.Errorf("Result = %v, want ErrCancelled", err)
	}

	var idle Attempt
	idle.Watch(context.Background(), idle.Fail)
	if idle.stop != nil {
		t.Error("Watch started a watcher for a context without Done")
	}
}

type serializableObj struct {
	b     []byte
	calls int // Serialize calls
}

func (o *serializableObj) Serialize() []byte {
	o.calls++
	return append([]byte(nil), o.b...)
}

func (o *serializableObj) serializeCalls() int { return o.calls }

// frozenObj is a serializable object that declares itself Immutable.
type frozenObj struct{ serializableObj }

func (*frozenObj) Immutable() {}

// TestFanOut is the copy-on-fan-out table: which form every consumer of a
// slot gets, that a shared form never aliases a pointer-passed payload, that
// an object is serialized at most once, that the share count reaches zero
// once every wire consumer owned or released its reference, and that an
// unserializable object is refused. A shape lists each consumer's place: L
// may share the producer's memory, R is on another rank, A is local under
// AlwaysSerialize (no consumer may share).
func TestFanOut(t *testing.T) {
	payloads := []struct {
		name                    string
		mk                      func() Payload
		serializable, immutable bool
	}{
		{"buffer", func() Payload { return Buffer([]byte("payload-bytes")) }, true, false},
		{"serializable", func() Payload { return Object(&serializableObj{b: []byte("payload-bytes")}) }, true, false},
		{"opaque", func() Payload { return Object(struct{ x int }{7}) }, false, false},
		{"immutable", func() Payload { return Object(&frozenObj{serializableObj{b: []byte("payload-bytes")}}) }, true, true},
	}
	// The last shape has local consumers 64 and more places before the last.
	shapes := []string{"L", "R", "RRR", "RRL", "LLL", "LRL", "LRLR", "RLLR", "AAA", "LR" + strings.Repeat("L", 68)}
	for _, pc := range payloads {
		for _, shape := range shapes {
			t.Run(pc.name+"/"+shape[:min(len(shape), 8)], func(t *testing.T) {
				ArenaAccounting(true)
				defer ArenaAccounting(false)
				p := pc.mk()
				n, last := len(shape), len(shape)-1
				// The rule: an immutable object goes to every L consumer,
				// anything else to the last consumer only, if it is L.
				pointer := make([]bool, n)
				wireConsumers := n
				for k := range shape {
					if shape[k] == 'L' && (pc.immutable || k == last) {
						pointer[k], wireConsumers = true, wireConsumers-1
					}
				}
				aliased := wireConsumers < n
				local := func(k int) bool { return shape[k] == 'L' }
				f, err := FanOut(p, n, local)
				switch {
				case !pc.serializable && wireConsumers > 0:
					if !errors.Is(err, ErrNotSerializable) {
						t.Fatalf("FanOut error = %v, want ErrNotSerializable", err)
					}
					return
				case err != nil:
					t.Fatal(err)
				}
				var wire Payload
				for k := range shape {
					got := f.To(k)
					if pointer[k] {
						if got.Object != p.Object || got.Data != nil && &got.Data[0] != &p.Data[0] {
							t.Fatalf("consumer %d got %+v, want the producer's payload", k, got)
						}
						continue
					}
					if string(got.Data) != "payload-bytes" || got.Object != nil {
						t.Fatalf("consumer %d got %+v, want the bytes alone", k, got)
					}
					wire = got
				}
				if o, ok := p.Object.(interface{ serializeCalls() int }); ok {
					if calls, want := o.serializeCalls(), min(wireConsumers, 1); calls != want {
						t.Errorf("Serialize called %d times for %d wire consumer(s), want %d", calls, wireConsumers, want)
					}
				}
				if wireConsumers == 0 {
					// Pure pointer pass: nothing serialized, copied or shared.
					if !f.wire.Empty() || f.wire.Shared() || ArenaOutstanding() != 0 {
						t.Fatalf("wire form = %+v, arena outstanding %d; want neither", f.wire, ArenaOutstanding())
					}
					return
				}
				if single := wireConsumers == 1 && !aliased; wire.Shared() == single {
					t.Fatalf("Shared() = %v with %d wire consumer(s), aliased=%v", wire.Shared(), wireConsumers, aliased)
				}
				if aliased && p.Data != nil && &wire.Data[0] == &p.Data[0] {
					t.Error("shared wire form aliases the pointer-passed payload")
				}
				if !aliased && wireConsumers == 1 && p.Data != nil && &wire.Data[0] != &p.Data[0] {
					t.Error("single wire consumer was handed a copy, want the relinquished buffer")
				}
				// Every wire consumer detaches: all but one own a copy, one
				// drops its reference unread.
				for k := 0; k < wireConsumers; k++ {
					if k == 0 && wireConsumers > 1 {
						wire.Release()
						continue
					}
					if own := wire.Own(); string(own.Data) != "payload-bytes" || own.Shared() {
						t.Fatalf("consumer %d owns %+v", k, own)
					}
				}
				if wire.shared != nil {
					if refs := wire.shared.refs.Load(); refs != 0 {
						t.Errorf("share count = %d after every consumer detached, want 0", refs)
					}
				}
				// An arena copy isolates an aliased buffer; the last owner
				// takes such a buffer with it, so at most that one escapes.
				if out := ArenaOutstanding(); out < 0 || out > 1 {
					t.Errorf("arena outstanding = %d", out)
				}
			})
		}
	}
}

// TestBasePreflight walks the lifecycle guard every controller shares.
func TestBasePreflight(t *testing.T) {
	var b Base
	cb := func(in []Payload, _ TaskId) ([]Payload, error) { return in, nil }
	if err := b.RegisterCallback(0, cb); !errors.Is(err, ErrNotInitialized) {
		t.Errorf("RegisterCallback before Bind: %v", err)
	}
	if err := b.Preflight(nil, nil, 0); !errors.Is(err, ErrNotInitialized) {
		t.Errorf("Preflight before Bind: %v", err)
	}
	if err := b.Bind(nil); err == nil || b.Plan() != nil {
		t.Errorf("Bind(nil) = %v, plan %v", err, b.Plan())
	}
	if err := b.Bind(lineGraph(2)); err != nil {
		t.Fatal(err)
	}
	initial := map[TaskId][]Payload{0: {Buffer(nil)}}
	if err := b.Preflight(initial, nil, 0); !errors.Is(err, ErrUnregisteredCallback) {
		t.Errorf("Preflight without callbacks: %v", err)
	}
	if err := b.RegisterCallback(0, cb); err != nil {
		t.Fatal(err)
	}
	if err := b.Preflight(nil, nil, 0); err == nil {
		t.Error("Preflight accepted a run without its external input")
	}
	if err := b.Preflight(initial, nil, 0); err != nil {
		t.Errorf("Preflight of a ready controller: %v", err)
	}
	// Shard 1 of a two-shard placement owns task 1 only, which takes no
	// external input.
	if err := b.Preflight(nil, []int32{0, 1}, 1); err != nil {
		t.Errorf("Preflight of shard 1: %v", err)
	}
}
