package faultinject

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// recorder is the transport under the wrapper: it records the Seq of every
// message that reaches it and drops the payload reference as a delivery
// would, so the arena balance shows whether the wrapper released the rest.
type recorder struct {
	fabric.Transport
	got       []uint64
	cancelled bool
}

func (r *recorder) Send(m fabric.Message) error { return r.SendN([]fabric.Message{m}) }

func (r *recorder) SendN(ms []fabric.Message) error {
	for _, m := range ms {
		m.Payload.Release()
		r.got = append(r.got, m.Seq)
	}
	return nil
}

func (r *recorder) Cancel() { r.cancelled = true }

// stream is what rank 0 sends: ten messages, Seq 1..10, alternating between
// ranks 1 and 2, with self-sends at Seq 1 and 5. Every payload holds one
// arena buffer.
func stream(t *testing.T) []fabric.Message {
	t.Helper()
	ms := make([]fabric.Message, 10)
	for i := range ms {
		p, err := core.SharedPayload(core.Buffer([]byte{byte(i)}), 1, true)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = fabric.Message{From: 0, To: 1 + i%2, Seq: uint64(i + 1), Payload: p}
	}
	ms[0].To, ms[4].To = 0, 0
	return ms
}

// TestPlanIndependentOfBatchShape sends the same stream as single sends, in
// batches of three and as one batch: the kill point and the copies must be
// the same, counted over inter-rank messages only.
func TestPlanIndependentOfBatchShape(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want []uint64 // Seqs that reach the inner transport, sorted
	}{
		{"no faults", Plan{KillRank: -1}, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"other rank is the victim", Plan{KillRank: 1}, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		// The first inter-rank message is Seq 2; the self-send before it
		// goes out.
		{"kill at the first message", Plan{KillRank: 0, KillAfter: 0}, []uint64{1}},
		// Three inter-rank messages (2, 3, 4) and the self-send 5 go out;
		// Seq 6 is the fourth inter-rank message.
		{"kill after three", Plan{KillRank: 0, KillAfter: 3}, []uint64{1, 2, 3, 4, 5}},
		// Inter-rank messages 2, 4, 6 and 8 are Seq 3, 6, 8 and 10.
		{"duplicate every second", Plan{KillRank: -1, DuplicateEvery: 2},
			[]uint64{1, 2, 3, 3, 4, 5, 6, 6, 7, 8, 8, 9, 10, 10}},
		// The third inter-rank message (Seq 4) is copied before the kill
		// at the sixth (Seq 8).
		{"duplicate every third, kill after five", Plan{KillRank: 0, KillAfter: 5, DuplicateEvery: 3},
			[]uint64{1, 2, 3, 4, 4, 5, 6, 7}},
	}
	for _, tc := range cases {
		for _, size := range []int{1, 3, 10} {
			t.Run(fmt.Sprintf("%s/batch%d", tc.name, size), func(t *testing.T) {
				core.ArenaAccounting(true)
				defer core.ArenaAccounting(false)
				inner := &recorder{Transport: fabric.New(3)}
				tr := Wrap(inner, 0, tc.plan)
				ms := stream(t)
				var firstErr error
				for lo := 0; lo < len(ms); lo += size {
					batch := ms[lo:min(lo+size, len(ms))]
					var err error
					if size == 1 {
						err = tr.Send(batch[0])
					} else {
						err = tr.SendN(batch)
					}
					if err != nil && firstErr == nil {
						firstErr = err
					}
				}
				slices.Sort(inner.got)
				if !reflect.DeepEqual(inner.got, tc.want) {
					t.Errorf("delivered %v, want %v", inner.got, tc.want)
				}
				killed := len(tc.want) < 10
				if tr.Killed() != killed || inner.cancelled != killed {
					t.Errorf("Killed() = %v, inner cancelled = %v, want %v", tr.Killed(), inner.cancelled, killed)
				}
				if killed != (firstErr != nil) {
					t.Errorf("send error %v with killed = %v", firstErr, killed)
				}
				if n := core.ArenaOutstanding(); n != 0 {
					t.Errorf("%d arena buffers outstanding", n)
				}
			})
		}
	}
}

// TestKillReportsVictim: after a kill the wrapper's Err wraps ErrPeerLost
// and LostPeers names the victim; before it, both are empty.
func TestKillReportsVictim(t *testing.T) {
	tr := Wrap(&recorder{Transport: fabric.New(3)}, 2, Plan{KillRank: 2, KillAfter: 1})
	send := func() error {
		return tr.Send(fabric.Message{From: 2, To: 0, Payload: core.Buffer([]byte{1})})
	}
	if err := send(); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if err, lost := tr.Err(), tr.LostPeers(); err != nil || len(lost) != 0 {
		t.Fatalf("before the kill: Err = %v, LostPeers = %v", err, lost)
	}
	if err := send(); !errors.Is(err, fabric.ErrPeerLost) {
		t.Fatalf("killing send = %v, want ErrPeerLost", err)
	}
	if err := tr.Err(); !errors.Is(err, fabric.ErrPeerLost) {
		t.Errorf("Err = %v, want ErrPeerLost", err)
	}
	if lost := tr.LostPeers(); !reflect.DeepEqual(lost, []int{2}) {
		t.Errorf("LostPeers = %v, want [2]", lost)
	}
	if err := send(); !errors.Is(err, fabric.ErrPeerLost) {
		t.Errorf("send after the kill = %v, want ErrPeerLost", err)
	}
}
