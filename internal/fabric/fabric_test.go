package fabric

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

func TestSendRecvFIFO(t *testing.T) {
	f := New(2)
	for i := 0; i < 10; i++ {
		if err := f.Send(Message{From: 0, To: 1, Src: core.TaskId(i), Payload: core.Buffer([]byte{byte(i)})}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, ok := f.Recv(1)
		if !ok {
			t.Fatal("mailbox closed early")
		}
		if m.Src != core.TaskId(i) {
			t.Fatalf("message %d out of order: src=%d", i, m.Src)
		}
	}
}

func TestSendUnknownRank(t *testing.T) {
	f := New(2)
	if err := f.Send(Message{To: 5}); err == nil {
		t.Error("send to unknown rank should fail")
	}
	if err := f.Send(Message{To: -1}); err == nil {
		t.Error("send to negative rank should fail")
	}
}

func TestCloseReleasesReceiver(t *testing.T) {
	f := New(1)
	done := make(chan bool)
	go func() {
		_, ok := f.Recv(0)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	f.Close(0)
	select {
	case ok := <-done:
		if ok {
			t.Error("Recv on closed empty mailbox should report !ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not return after Close")
	}
}

func TestCloseDrainsQueuedMessages(t *testing.T) {
	f := New(1)
	f.Send(Message{To: 0, Src: 7})
	f.Close(0)
	m, ok := f.Recv(0)
	if !ok || m.Src != 7 {
		t.Errorf("queued message lost on close: %v %v", m, ok)
	}
	if _, ok := f.Recv(0); ok {
		t.Error("second Recv should report closed")
	}
}

func TestTryRecv(t *testing.T) {
	f := New(1)
	if _, ok := f.TryRecv(0); ok {
		t.Error("TryRecv on empty mailbox should fail")
	}
	f.Send(Message{To: 0, Src: 3})
	m, ok := f.TryRecv(0)
	if !ok || m.Src != 3 {
		t.Errorf("TryRecv = %v, %v", m, ok)
	}
}

func TestStatsCountMessagesAndBytes(t *testing.T) {
	f := New(2)
	f.Send(Message{To: 1, Payload: core.Buffer(make([]byte, 100))})
	f.Send(Message{To: 1, Payload: core.Buffer(make([]byte, 28))})
	f.Send(Message{From: 1, To: 1, Payload: core.Buffer(make([]byte, 40))}) // self-send: not traffic
	s := f.Snapshot()
	if s.Messages != 2 || s.Bytes != 128 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConcurrentSendersAllDelivered(t *testing.T) {
	f := New(4)
	const perSender = 200
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				f.Send(Message{From: s, To: 3, Src: core.TaskId(s*perSender + i)})
			}
		}(s)
	}
	go func() { wg.Wait(); f.Close(3) }()

	seen := make(map[core.TaskId]bool)
	lastPerSender := map[int]int{0: -1, 1: -1, 2: -1}
	for {
		m, ok := f.Recv(3)
		if !ok {
			break
		}
		if seen[m.Src] {
			t.Fatalf("duplicate message %d", m.Src)
		}
		seen[m.Src] = true
		// Pairwise FIFO: per sender, sequence numbers ascend.
		idx := int(m.Src) % perSender
		if idx <= lastPerSender[m.From] {
			t.Fatalf("sender %d out of order: %d after %d", m.From, idx, lastPerSender[m.From])
		}
		lastPerSender[m.From] = idx
	}
	if len(seen) != 3*perSender {
		t.Errorf("delivered %d, want %d", len(seen), 3*perSender)
	}
}

func TestMailboxLenAndPutAfterCloseErrClosed(t *testing.T) {
	mb := NewMailbox()
	if err := mb.Put(Message{}); err != nil {
		t.Fatal(err)
	}
	if mb.Len() != 1 {
		t.Errorf("Len = %d", mb.Len())
	}
	mb.Close()
	if err := mb.Put(Message{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if err := mb.PutN([]Message{{}, {}}); !errors.Is(err, ErrClosed) {
		t.Errorf("PutN after Close = %v, want ErrClosed", err)
	}
	// The queued message survives the close; only new Puts are rejected.
	if _, ok := mb.TryGet(); !ok {
		t.Error("queued message lost on close")
	}
}

// TestSendClosedRankErrClosed locks in the error surface the TCP transport
// maps peer disconnects onto: Send/SendN to a closed rank return a typed
// ErrClosed instead of panicking or silently enqueueing, and the payloads of
// undelivered messages are released (their shared wire references dropped).
func TestSendClosedRankErrClosed(t *testing.T) {
	f := New(3)
	f.Close(1)
	if err := f.Send(Message{From: 0, To: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send to closed rank = %v, want ErrClosed", err)
	}

	// SendN: the run to the open rank before the failure is delivered; the
	// failed run and everything after it is dropped with its payloads
	// released.
	shared, err := core.SharedPayload(core.Object(serialLoop{}), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	ms := []Message{
		{From: 0, To: 2, Src: 1},
		{From: 0, To: 1, Src: 2, Payload: shared},
		{From: 0, To: 2, Src: 3, Payload: shared},
	}
	if err := f.SendN(ms); !errors.Is(err, ErrClosed) {
		t.Errorf("SendN with closed run = %v, want ErrClosed", err)
	}
	if m, ok := f.TryRecv(2); !ok || m.Src != 1 {
		t.Errorf("pre-failure run = %v, %v, want delivered Src=1", m, ok)
	}
	if _, ok := f.TryRecv(2); ok {
		t.Error("post-failure run must not be delivered")
	}
	// Only the delivered pre-failure message counts as traffic.
	s := f.Snapshot()
	if s.Messages != 1 {
		t.Errorf("stats count undelivered messages: %+v", s)
	}
}

func TestSendCancelledFabricErrClosed(t *testing.T) {
	f := New(2)
	f.Cancel()
	if err := f.Send(Message{From: 0, To: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on cancelled fabric = %v, want ErrClosed", err)
	}
	if err := f.SendN([]Message{{From: 0, To: 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("SendN on cancelled fabric = %v, want ErrClosed", err)
	}
}

// serialLoop is a Serializable test object.
type serialLoop struct{}

func (serialLoop) Serialize() []byte { return []byte{0xAB} }

// TestMailboxRingWraparound drives the ring buffer through many
// enqueue/dequeue cycles with a standing backlog, so head wraps repeatedly
// and the ring grows at least once, and checks FIFO order throughout.
func TestMailboxRingWraparound(t *testing.T) {
	mb := NewMailbox()
	next := 0 // next sequence number to enqueue
	want := 0 // next sequence number expected out
	put := func(n int) {
		for i := 0; i < n; i++ {
			mb.Put(Message{Src: core.TaskId(next)})
			next++
		}
	}
	get := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			m, ok := mb.TryGet()
			if !ok {
				t.Fatalf("TryGet failed at seq %d", want)
			}
			if m.Src != core.TaskId(want) {
				t.Fatalf("out of order: got %d, want %d", m.Src, want)
			}
			want++
		}
	}
	put(100) // backlog forces growth past the initial ring
	for cycle := 0; cycle < 300; cycle++ {
		put(3)
		get(3)
	}
	get(100)
	if mb.Len() != 0 {
		t.Fatalf("Len = %d after drain", mb.Len())
	}
}

func TestPutNGetBatchFIFO(t *testing.T) {
	mb := NewMailbox()
	batch := make([]Message, 10)
	for i := range batch {
		batch[i] = Message{Src: core.TaskId(i)}
	}
	mb.PutN(batch[:7])
	mb.PutN(batch[7:])
	if mb.Len() != 10 {
		t.Fatalf("Len = %d", mb.Len())
	}
	dst := make([]Message, 4)
	seq := 0
	for seq < 10 {
		n, ok := mb.GetBatch(dst)
		if !ok || n == 0 {
			t.Fatalf("GetBatch = %d, %v at seq %d", n, ok, seq)
		}
		for i := 0; i < n; i++ {
			if dst[i].Src != core.TaskId(seq) {
				t.Fatalf("batch out of order: got %d, want %d", dst[i].Src, seq)
			}
			seq++
		}
	}
}

func TestSendNDeliversAndCounts(t *testing.T) {
	f := New(3)
	ms := []Message{
		{From: 0, To: 1, Src: 1, Payload: core.Buffer(make([]byte, 10))},
		{From: 0, To: 1, Src: 2, Payload: core.Buffer(make([]byte, 20))},
		{From: 0, To: 2, Src: 3, Payload: core.Buffer(make([]byte, 30))},
		{From: 0, To: 0, Src: 4, Payload: core.Buffer(make([]byte, 40))}, // self-send: not traffic
	}
	if err := f.SendN(ms); err != nil {
		t.Fatal(err)
	}
	for i, want := range []core.TaskId{1, 2} {
		m, ok := f.TryRecv(1)
		if !ok || m.Src != want {
			t.Fatalf("rank 1 message %d = %v, %v", i, m, ok)
		}
	}
	if m, ok := f.TryRecv(2); !ok || m.Src != 3 {
		t.Fatalf("rank 2 = %v, %v", m, ok)
	}
	if m, ok := f.TryRecv(0); !ok || m.Src != 4 {
		t.Fatalf("rank 0 = %v, %v", m, ok)
	}
	s := f.Snapshot()
	if s.Messages != 3 || s.Bytes != 60 {
		t.Errorf("stats = %+v, want 3 messages / 60 bytes", s)
	}
}

func TestSendNUnknownRank(t *testing.T) {
	f := New(2)
	err := f.SendN([]Message{{To: 0}, {To: 7}})
	if err == nil {
		t.Error("SendN with an unknown rank should fail")
	}
}

func TestRecvBatchBlocksThenDrains(t *testing.T) {
	f := New(1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		f.SendN([]Message{{To: 0, Src: 1}, {To: 0, Src: 2}})
	}()
	dst := make([]Message, 8)
	n, ok := f.RecvBatch(0, dst)
	if !ok || n == 0 {
		t.Fatalf("RecvBatch = %d, %v", n, ok)
	}
	got := n
	for got < 2 {
		n, ok = f.RecvBatch(0, dst)
		if !ok {
			t.Fatal("RecvBatch failed before draining")
		}
		got += n
	}
	f.Close(0)
	if n, ok := f.RecvBatch(0, dst); ok || n != 0 {
		t.Errorf("RecvBatch after close+drain = %d, %v", n, ok)
	}
}

// TestSendNPerDestinationFIFO locks in the ordering contract the TCP
// transport must reproduce: a SendN interleaving two destinations delivers
// each destination's messages in batch order.
func TestSendNPerDestinationFIFO(t *testing.T) {
	f := New(3)
	const perDest = 20
	var ms []Message
	for i := 0; i < perDest; i++ {
		ms = append(ms,
			Message{From: 0, To: 1, Src: core.TaskId(i)},
			Message{From: 0, To: 2, Src: core.TaskId(i)})
	}
	if err := f.SendN(ms); err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{1, 2} {
		for i := 0; i < perDest; i++ {
			m, ok := f.TryRecv(rank)
			if !ok || m.Src != core.TaskId(i) {
				t.Fatalf("rank %d message %d = %v, %v, want Src=%d", rank, i, m, ok, i)
			}
		}
		if m, ok := f.TryRecv(rank); ok {
			t.Fatalf("rank %d: extra message %v", rank, m)
		}
	}
}

// TestDeliveredMessagesCollectable is the regression test for the dequeue
// leak: the old slice-shift mailbox (queue = queue[1:]) kept delivered
// payloads reachable through the backing array. The ring buffer zeroes each
// vacated slot, so a delivered message's payload must become collectable as
// soon as the consumer drops it — while the mailbox is still alive and in
// use.
func TestDeliveredMessagesCollectable(t *testing.T) {
	mb := NewMailbox()
	const n = 8
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		buf := new([4096]byte)
		runtime.SetFinalizer(buf, func(*[4096]byte) { freed.Add(1) })
		mb.Put(Message{Src: core.TaskId(i), Payload: core.Buffer(buf[:])})
	}
	for i := 0; i < n; i++ {
		if _, ok := mb.TryGet(); !ok {
			t.Fatal("lost message")
		}
	}
	// Keep the mailbox alive and open: the payloads must be collectable
	// anyway.
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < n && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got < n {
		t.Errorf("only %d of %d delivered payloads were collected; the mailbox retains delivered messages", got, n)
	}
	runtime.KeepAlive(mb)
}

func TestNewPanicsOnZeroRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}
