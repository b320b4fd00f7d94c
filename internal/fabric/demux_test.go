package fabric

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

// TestDemuxRoutesByRun drives two interleaved runs over one fabric and
// checks each run's view sees exactly its own traffic, in sender order.
func TestDemuxRoutesByRun(t *testing.T) {
	f := New(2)
	d := NewDemux(f, 0, 1)
	a, err := d.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v := a
		if i%2 == 1 {
			v = b
		}
		if err := v.Send(Message{From: 0, To: 1, Src: core.TaskId(i), Payload: core.Buffer([]byte{byte(i)})}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, ok := a.Recv(1)
		if !ok {
			t.Fatal("run 1 mailbox ended early")
		}
		if want := core.TaskId(2 * i); m.Src != want {
			t.Fatalf("run 1 message %d: src=%d want %d", i, m.Src, want)
		}
		if m.Run != 1 {
			t.Fatalf("run 1 message carries run id %d", m.Run)
		}
	}
	for i := 0; i < 10; i++ {
		m, ok := b.Recv(1)
		if !ok {
			t.Fatal("run 2 mailbox ended early")
		}
		if want := core.TaskId(2*i + 1); m.Src != want {
			t.Fatalf("run 2 message %d: src=%d want %d", i, m.Src, want)
		}
	}
}

// TestDemuxCancelIsolation cancels one run and checks the other keeps
// flowing over the shared transport.
func TestDemuxCancelIsolation(t *testing.T) {
	f := New(2)
	d := NewDemux(f, 0, 1)
	a, _ := d.Open(1)
	b, _ := d.Open(2)

	a.Cancel()
	if err := a.Send(Message{From: 0, To: 1, Payload: core.Buffer([]byte{1})}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on cancelled run: err=%v, want ErrClosed", err)
	}
	if _, ok := a.Recv(1); ok {
		t.Fatal("recv on cancelled run should report !ok")
	}

	if err := b.Send(Message{From: 0, To: 1, Src: 42, Payload: core.Buffer([]byte{2})}); err != nil {
		t.Fatal(err)
	}
	m, ok := b.Recv(1)
	if !ok || m.Src != 42 {
		t.Fatalf("surviving run lost its message: %v %v", m, ok)
	}
}

// TestDemuxStrayDropped sends to a released run and checks the message is
// dropped and counted rather than delivered or leaked.
func TestDemuxStrayDropped(t *testing.T) {
	f := New(2)
	d := NewDemux(f, 0, 1)
	v, _ := d.Open(1)
	d.Release(1)
	// Late message from a peer that has not yet heard the run finished.
	_ = v.Send(Message{From: 0, To: 1, Payload: core.Buffer([]byte{9})})
	deadline := time.Now().Add(2 * time.Second)
	for d.Stray() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stray message never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := d.Runs(); got != 0 {
		t.Fatalf("Runs() = %d after release, want 0", got)
	}
}

// TestDemuxStrayAfterCancelRelease covers the second stray branch: the
// frame arrives while the run is still registered but its mailbox is
// already cancelled (a run being torn down mid-cancel), then again after
// Release removes it entirely. Both must count as stray, not deliver, and
// not disturb the shared transport.
func TestDemuxStrayAfterCancelRelease(t *testing.T) {
	f := New(2)
	d := NewDemux(f, 0, 1)
	v, _ := d.Open(1)
	v.Cancel() // mailboxes cancelled, run still registered: Put fails
	_ = f.Send(Message{From: 0, To: 1, Run: 1, Payload: core.Buffer([]byte{1})})
	waitStray := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for d.Stray() < want {
			if time.Now().After(deadline) {
				t.Fatalf("Stray() = %d, want %d", d.Stray(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitStray(1)
	d.Release(1) // run removed entirely: unknown-run branch
	_ = f.Send(Message{From: 0, To: 1, Run: 1, Payload: core.Buffer([]byte{2})})
	waitStray(2)
	if got := d.Runs(); got != 0 {
		t.Fatalf("Runs() = %d after release, want 0", got)
	}
}

// TestDemuxIngestAllocs pins the steady-state allocation count of the
// demux ingest path — send through a run view, pump routing, mailbox
// delivery, receive — so a change that adds per-message heap traffic on
// the multiplexed hot path fails loudly.
func TestDemuxIngestAllocs(t *testing.T) {
	f := New(2)
	d := NewDemux(f, 0, 1)
	v, err := d.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	payload := core.Buffer(make([]byte, 64))
	op := func() {
		if err := v.Send(Message{From: 0, To: 1, Payload: payload}); err != nil {
			t.Error(err)
			return
		}
		if _, ok := v.Recv(1); !ok {
			t.Error("pump ended mid-measurement")
		}
	}
	for i := 0; i < 64; i++ {
		op()
	}
	// Measured 0 allocs per message; the bound leaves room for runtime
	// noise charged to the measurement window, not for a real regression.
	if avg := testing.AllocsPerRun(512, op); avg > 2 {
		t.Errorf("demux ingest averaged %.1f allocs per message, want <= 2", avg)
	}
}

// TestDemuxOpenErrors covers the reserved id and duplicate id cases.
func TestDemuxOpenErrors(t *testing.T) {
	f := New(1)
	d := NewDemux(f, 0)
	if _, err := d.Open(0); err == nil {
		t.Error("Open(0) should reject the reserved unmultiplexed id")
	}
	if _, err := d.Open(7); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open(7); err == nil {
		t.Error("duplicate Open should fail")
	}
	d.Close()
	if _, err := d.Open(8); err == nil {
		t.Error("Open on a closed demux should fail")
	}
}

// TestDemuxUnderlyingCloseEndsRuns closes the shared transport's mailboxes
// and checks every run's receivers unwind after draining.
func TestDemuxUnderlyingCloseEndsRuns(t *testing.T) {
	f := New(1)
	d := NewDemux(f, 0)
	v, _ := d.Open(1)
	if err := v.Send(Message{From: 0, To: 0, Src: 5, Payload: core.Buffer([]byte{5})}); err != nil {
		t.Fatal(err)
	}
	f.Close(0)
	d.Wait()
	m, ok := v.Recv(0)
	if !ok || m.Src != 5 {
		t.Fatalf("queued message lost on close: %v %v", m, ok)
	}
	if _, ok := v.Recv(0); ok {
		t.Fatal("recv after drain on closed transport should report !ok")
	}
}

// TestDemuxConcurrentRuns hammers many runs concurrently over one shared
// fabric, each with its own sender and receiver, and checks per-run
// delivery is complete and isolated. Run with -race.
func TestDemuxConcurrentRuns(t *testing.T) {
	const runs, msgs = 16, 200
	f := New(2)
	d := NewDemux(f, 0, 1)
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for r := 1; r <= runs; r++ {
		v, err := d.Open(uint64(r))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(v *RunTransport) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := v.Send(Message{From: 0, To: 1, Src: core.TaskId(i), Payload: core.Buffer([]byte{byte(i)})}); err != nil {
					errs <- err
					return
				}
			}
		}(v)
		go func(v *RunTransport, id uint64) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				m, ok := v.Recv(1)
				if !ok {
					errs <- fmt.Errorf("run %d: mailbox ended at message %d", id, i)
					return
				}
				if m.Src != core.TaskId(i) || m.Run != id {
					errs <- fmt.Errorf("run %d: got src=%d run=%d at index %d", id, m.Src, m.Run, i)
					return
				}
			}
		}(v, uint64(r))
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if d.Stray() != 0 {
		t.Fatalf("stray count %d on clean interleaving", d.Stray())
	}
}

// TestDemuxSnapshotPerRun checks traffic accounting is per run view.
func TestDemuxSnapshotPerRun(t *testing.T) {
	f := New(2)
	d := NewDemux(f, 0, 1)
	a, _ := d.Open(1)
	b, _ := d.Open(2)
	for i := 0; i < 3; i++ {
		if err := a.Send(Message{From: 0, To: 1, Payload: core.Buffer(make([]byte, 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send(Message{From: 0, To: 1, Payload: core.Buffer(make([]byte, 4))}); err != nil {
		t.Fatal(err)
	}
	if s := a.Snapshot(); s.Messages != 3 || s.Bytes != 30 {
		t.Fatalf("run 1 stats = %+v", s)
	}
	if s := b.Snapshot(); s.Messages != 1 || s.Bytes != 4 {
		t.Fatalf("run 2 stats = %+v", s)
	}
}

// countingObj counts how often it is serialized.
type countingObj struct{ calls *int }

func (o countingObj) Serialize() []byte { *o.calls++; return make([]byte, 1<<10) }

// TestDemuxCountsWithoutSerializing: a rank-local object hand-off is not
// traffic, so counting it must not serialize the object; a cross-rank Data
// message still counts its bytes.
func TestDemuxCountsWithoutSerializing(t *testing.T) {
	d := NewDemux(New(2), 0, 1)
	v, _ := d.Open(1)
	calls := 0
	obj := core.Object(countingObj{&calls})
	if err := v.Send(Message{From: 0, To: 0, Payload: obj}); err != nil {
		t.Fatal(err)
	}
	if err := v.SendN([]Message{
		{From: 1, To: 1, Payload: obj},
		{From: 0, To: 1, Payload: core.Buffer(make([]byte, 6))},
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("counting traffic serialized the local object %d times", calls)
	}
	if s := v.Snapshot(); s.Messages != 1 || s.Bytes != 6 {
		t.Errorf("stats = %+v, want the one cross-rank message of 6 bytes", s)
	}
}
