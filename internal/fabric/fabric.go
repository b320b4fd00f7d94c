// Package fabric provides the in-process interconnect the runtime
// controllers execute on: a set of ranks with unbounded FIFO mailboxes and
// asynchronous point-to-point messaging.
//
// The fabric substitutes for the physical network of the paper's testbed.
// It preserves the properties the controllers rely on — reliable delivery
// and pairwise FIFO ordering between any sender/receiver pair — while
// accounting message and byte counts for the performance studies. A
// blocking (rendezvous) mode models the synchronous communication style of
// the hand-tuned "Original MPI" baseline of Fig. 6.
//
// Mailboxes are growable ring buffers whose backing arrays are pooled
// across mailbox lifetimes, and the batch entry points (SendN, RecvBatch)
// move a whole fan-out or drain a whole queue under a single lock
// acquisition, so the steady-state message path performs no allocation and
// one lock operation per batch rather than per message.
package fabric

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/babelflow/babelflow-go/internal/core"
)

// ErrClosed is returned by Send and SendN when the destination mailbox is
// closed or the fabric has been cancelled. The message was not (and will not
// be) delivered; the fabric has already released its payload reference, so
// pooled fan-out buffers still return to the arena. Network transports map
// peer disconnects onto the same error surface.
var ErrClosed = errors.New("fabric: mailbox closed")

// ErrPeerLost is the transport-level failure reported when a rank stops
// responding: its connection broke or its heartbeats went silent. The
// fault-tolerant coordinator treats it as retryable — survivors reassign
// the lost rank's tasks and replay the undelivered frontier. Network
// transports (internal/wire) and the fault-injection harness wrap this
// sentinel; test with errors.Is.
var ErrPeerLost = errors.New("fabric: peer lost")

// LossReporter is implemented by transports that can name which peers were
// lost, so a recovery coordinator can rebuild the task map around them.
type LossReporter interface {
	// LostPeers returns the ranks this transport observed as dead, in this
	// transport's rank numbering. Empty when no peer was lost.
	LostPeers() []int
}

// Transport is the interconnect a runtime controller executes on: n ranks
// exchanging point-to-point messages with reliable delivery and pairwise
// FIFO ordering between any sender/receiver pair. The in-memory Fabric is
// one implementation; the TCP fabric (internal/wire) implements the same
// contract across OS processes.
//
// Semantics every implementation must provide:
//
//   - Send/SendN never deliver partially: a message is either enqueued for
//     its destination or an error is returned and the transport has released
//     the payload references of every undelivered message.
//   - SendN preserves the relative order of its messages per destination.
//   - Recv/RecvBatch block until a message arrives or delivery becomes
//     impossible (mailbox closed and drained, transport cancelled or failed),
//     then report !ok.
//   - Cancel aborts all communication: queued messages are dropped (their
//     payload references released), blocked receivers return !ok.
//   - Err reports the first transport-level failure (nil for controller-
//     initiated cancellation; the in-memory fabric never fails).
type Transport interface {
	// Ranks returns the number of ranks the transport connects.
	Ranks() int
	// Send delivers one message to rank m.To.
	Send(m Message) error
	// SendN delivers a batch, preserving per-destination order.
	SendN(ms []Message) error
	// Recv blocks until a message for the rank arrives; ok is false when
	// delivery has become impossible.
	Recv(rank int) (Message, bool)
	// RecvBatch blocks for the first message, then dequeues up to len(dst)
	// messages, returning the number dequeued.
	RecvBatch(rank int, dst []Message) (int, bool)
	// Close marks the rank's mailbox closed; queued messages remain
	// receivable, further sends to it fail with ErrClosed.
	Close(rank int)
	// Cancel aborts all communication.
	Cancel()
	// Err returns the first transport-level failure, if any.
	Err() error
	// Snapshot returns the traffic totals so far.
	Snapshot() Stats
}

// Message is one point-to-point transfer between ranks: a payload travelling
// from producing task Src toward consuming task Dest.
type Message struct {
	From    int
	To      int
	Src     core.TaskId
	Dest    core.TaskId
	Payload core.Payload

	// Seq is a per-sender-unique message id stamped by fault-tolerant
	// controllers so receivers can drop redelivered duplicates. Zero means
	// the message carries no dedup identity.
	Seq uint64
	// Run identifies the graph instance this message belongs to when many
	// runs multiplex over one transport (see Demux). Zero means the
	// transport carries a single unmultiplexed run — the one-shot Run path.
	Run uint64
	// Attempt is the execution attempt of the producing task (1 = first
	// run, 0 = unknown/replay); carried for tracing and diagnostics.
	Attempt uint32

	done chan struct{} // rendezvous signal in blocking mode
}

// Stats aggregates traffic counters. All fields are totals since fabric
// creation.
type Stats struct {
	Messages uint64
	Bytes    uint64
}

// traffic counts the messages that cross ranks and the bytes of their Data.
// Self-sends are in-memory hand-offs and do not count; an object-only
// payload is never serialized to be counted (see core.Payload.Size).
type traffic struct {
	messages atomic.Uint64
	bytes    atomic.Uint64
}

func (t *traffic) count(ms ...Message) {
	for i := range ms {
		if ms[i].From != ms[i].To {
			t.messages.Add(1)
			t.bytes.Add(uint64(ms[i].Payload.Size()))
		}
	}
}

// Snapshot returns the traffic totals so far.
func (t *traffic) Snapshot() Stats {
	return Stats{Messages: t.messages.Load(), Bytes: t.bytes.Load()}
}

// Fabric connects n ranks with unbounded mailboxes.
type Fabric struct {
	boxes    []*Mailbox
	blocking bool
	traffic
}

// New returns a fabric with n ranks and asynchronous sends: Send enqueues
// and returns immediately, like MPI_Isend against a posted receive.
func New(n int) *Fabric {
	if n < 1 {
		panic("fabric: need at least one rank")
	}
	f := &Fabric{boxes: make([]*Mailbox, n)}
	for i := range f.boxes {
		f.boxes[i] = NewMailbox()
	}
	return f
}

// NewBlocking returns a fabric whose Send performs a rendezvous: the sender
// blocks until the receiver has dequeued the message, modeling blocking
// MPI_Send of large messages.
func NewBlocking(n int) *Fabric {
	f := New(n)
	f.blocking = true
	return f
}

// Ranks returns the number of ranks.
func (f *Fabric) Ranks() int { return len(f.boxes) }

// Send delivers m to rank m.To. In asynchronous mode it never blocks; in
// blocking mode it waits for the receiver to dequeue the message. When the
// destination mailbox is closed or cancelled, Send releases the payload and
// returns an error wrapping ErrClosed.
func (f *Fabric) Send(m Message) error {
	if m.To < 0 || m.To >= len(f.boxes) {
		m.Payload.Release()
		return fmt.Errorf("fabric: send to unknown rank %d", m.To)
	}
	if f.blocking && m.From != m.To {
		// Rendezvous, except for self-sends: local delivery is a memory
		// hand-off, not a network transfer, even in blocking mode.
		m.done = make(chan struct{})
		if err := f.boxes[m.To].Put(m); err != nil {
			return fmt.Errorf("fabric: rank %d: %w", m.To, err)
		}
		f.count(m)
		<-m.done
		return nil
	}
	if err := f.boxes[m.To].Put(m); err != nil {
		return fmt.Errorf("fabric: rank %d: %w", m.To, err)
	}
	f.count(m)
	return nil
}

// SendN delivers a batch of messages, preserving their relative order for
// every destination: runs of consecutive messages addressed to the same
// rank are enqueued under one lock acquisition of that rank's mailbox. In
// blocking mode each inter-rank message still performs an individual
// rendezvous, as a real blocking send would.
//
// On error, messages preceding the failure may already have been delivered;
// the payload references of every undelivered message (including the failed
// one) have been released.
func (f *Fabric) SendN(ms []Message) error {
	for i := range ms {
		if ms[i].To < 0 || ms[i].To >= len(f.boxes) {
			dropMessages(ms)
			return fmt.Errorf("fabric: send to unknown rank %d", ms[i].To)
		}
	}
	if f.blocking {
		for i, m := range ms {
			if m.From != m.To {
				m.done = make(chan struct{})
				if err := f.boxes[m.To].Put(m); err != nil {
					dropMessages(ms[i+1:])
					return fmt.Errorf("fabric: rank %d: %w", m.To, err)
				}
				f.count(m)
				<-m.done
				continue
			}
			if err := f.boxes[m.To].Put(m); err != nil {
				dropMessages(ms[i+1:])
				return fmt.Errorf("fabric: rank %d: %w", m.To, err)
			}
		}
		return nil
	}
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && ms[j].To == ms[i].To {
			j++
		}
		if err := f.boxes[ms[i].To].PutN(ms[i:j]); err != nil {
			dropMessages(ms[j:])
			return fmt.Errorf("fabric: rank %d: %w", ms[i].To, err)
		}
		f.count(ms[i:j]...)
		i = j
	}
	return nil
}

// Recv blocks until a message for the rank arrives or its mailbox is
// closed; ok is false after close with an empty queue.
func (f *Fabric) Recv(rank int) (Message, bool) {
	m, ok := f.boxes[rank].Get()
	if ok && m.done != nil {
		close(m.done)
	}
	return m, ok
}

// RecvBatch blocks until at least one message for the rank is available (or
// the mailbox is closed and drained) and dequeues up to len(dst) messages
// under one lock acquisition. It returns the number dequeued; ok is false
// after close with an empty queue.
func (f *Fabric) RecvBatch(rank int, dst []Message) (int, bool) {
	n, ok := f.boxes[rank].GetBatch(dst)
	for i := 0; i < n; i++ {
		if dst[i].done != nil {
			close(dst[i].done)
			dst[i].done = nil
		}
	}
	return n, ok
}

// TryRecv dequeues a message if one is immediately available.
func (f *Fabric) TryRecv(rank int) (Message, bool) {
	m, ok := f.boxes[rank].TryGet()
	if ok && m.done != nil {
		close(m.done)
	}
	return m, ok
}

// Close closes the mailbox of a rank, releasing blocked receivers after the
// queue drains.
func (f *Fabric) Close(rank int) { f.boxes[rank].Close() }

// Cancel aborts all communication: every mailbox stops accepting and
// delivering messages, all blocked receivers return !ok and blocked
// rendezvous senders are released. Controllers call it when a task fails so
// every rank can unwind.
func (f *Fabric) Cancel() {
	for _, mb := range f.boxes {
		mb.Cancel()
	}
}

// Err implements Transport. The in-memory fabric has no transport-level
// failure modes, so Err is always nil; controllers track abort causes
// themselves.
func (f *Fabric) Err() error { return nil }

var _ Transport = (*Fabric)(nil)

// ringPool recycles mailbox backing arrays across mailbox lifetimes:
// controllers create a fresh fabric per Run, so without pooling every run
// re-grows every rank's queue from scratch. Pooled arrays are fully zeroed
// before release, so they pin no payloads.
var ringPool = sync.Pool{
	New: func() any {
		b := make([]Message, ringMinSize)
		return &b
	},
}

const ringMinSize = 64

// Mailbox is an unbounded FIFO queue with blocking receive, backed by a
// growable ring buffer. A single lock protects the ring, so delivery order
// is the order Put calls complete, which preserves pairwise FIFO for any
// sender. Dequeued slots are zeroed immediately: a delivered message's
// payload is collectable as soon as its consumer drops it, regardless of
// queue depth history.
type Mailbox struct {
	mu        sync.Mutex
	cond      *sync.Cond
	buf       []Message // ring storage; nil until first Put and after teardown
	head      int       // index of the oldest message
	count     int       // queued messages
	closed    bool
	cancelled bool

	// ready mirrors "a receiver would not block" (count > 0, closed or
	// cancelled) so blocking receivers can probe it lock-free before parking
	// on the condition variable. Parking and waking a goroutine through the
	// cond costs microseconds; a latency-bound ping-pong whose reply is
	// already in flight is served out of a brief spin instead.
	ready atomic.Int32
}

// NewMailbox returns an empty, open mailbox.
func NewMailbox() *Mailbox {
	mb := &Mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// reserveLocked makes room for n more messages.
func (mb *Mailbox) reserveLocked(n int) {
	if mb.buf == nil {
		if n <= ringMinSize {
			mb.buf = *ringPool.Get().(*[]Message)
		} else {
			mb.buf = make([]Message, nextPow2(n))
		}
		return
	}
	need := mb.count + n
	if need <= len(mb.buf) {
		return
	}
	nb := make([]Message, nextPow2(need))
	for i := 0; i < mb.count; i++ {
		nb[i] = mb.buf[(mb.head+i)%len(mb.buf)]
	}
	mb.releaseRing()
	mb.buf, mb.head = nb, 0
}

func nextPow2(n int) int {
	c := ringMinSize
	for c < n {
		c <<= 1
	}
	return c
}

// releaseRing zeroes the current backing array and returns it to the pool.
func (mb *Mailbox) releaseRing() {
	if mb.buf == nil {
		return
	}
	clear(mb.buf)
	buf := mb.buf
	mb.buf, mb.head = nil, 0
	if len(buf) <= 1<<16 { // don't pin huge arrays
		ringPool.Put(&buf)
	}
}

func (mb *Mailbox) pushLocked(m Message) {
	mb.buf[(mb.head+mb.count)%len(mb.buf)] = m
	mb.count++
	mb.ready.Store(1)
}

func (mb *Mailbox) popLocked() Message {
	m := mb.buf[mb.head]
	mb.buf[mb.head] = Message{} // release the delivered payload reference
	mb.head = (mb.head + 1) % len(mb.buf)
	mb.count--
	if mb.count == 0 {
		mb.head = 0
		if mb.closed {
			// Terminal drain: no further Put is legal, recycle the ring.
			mb.releaseRing()
		} else {
			mb.ready.Store(0)
		}
	}
	return m
}

// mailboxSpin bounds the lock-free probes a blocking receiver makes before
// parking. Each probe is one atomic load plus a scheduler yield, so the
// budget costs at most a few microseconds of one core — cheaper than a
// single park/unpark round trip when the next message is already on its
// way, and negligible when the receiver genuinely has to wait. On a
// single-P runtime the yields would instead starve the netpoller (the
// producer may be a socket read that never gets scheduled), so spinning is
// disabled there.
var mailboxSpin = func() int {
	if runtime.GOMAXPROCS(0) > 1 {
		return 256
	}
	return 0
}()

// spinWait probes the ready hint briefly before the caller falls back to
// the lock + condition variable. It never consumes a message; it only makes
// the subsequent lock acquisition likely to find one.
func (mb *Mailbox) spinWait() {
	if mb.ready.Load() != 0 {
		return
	}
	for i := 0; i < mailboxSpin; i++ {
		runtime.Gosched()
		if mb.ready.Load() != 0 {
			return
		}
	}
}

// Put enqueues a message. Put on a closed or cancelled mailbox drops the
// message — releasing a blocked rendezvous sender and the payload's shared
// wire reference — and returns ErrClosed.
func (mb *Mailbox) Put(m Message) error {
	mb.mu.Lock()
	if mb.closed || mb.cancelled {
		mb.mu.Unlock()
		dropMessage(m)
		return ErrClosed
	}
	mb.reserveLocked(1)
	mb.pushLocked(m)
	mb.mu.Unlock()
	mb.cond.Signal()
	return nil
}

// PutN enqueues a batch of messages in order under one lock acquisition.
// Like Put, PutN on a closed or cancelled mailbox drops the whole batch and
// returns ErrClosed.
func (mb *Mailbox) PutN(ms []Message) error {
	if len(ms) == 0 {
		return nil
	}
	mb.mu.Lock()
	if mb.closed || mb.cancelled {
		mb.mu.Unlock()
		dropMessages(ms)
		return ErrClosed
	}
	mb.reserveLocked(len(ms))
	for _, m := range ms {
		mb.pushLocked(m)
	}
	mb.mu.Unlock()
	if len(ms) == 1 {
		mb.cond.Signal()
	} else {
		mb.cond.Broadcast()
	}
	return nil
}

// Get blocks until a message is available or the mailbox is closed and
// drained.
func (mb *Mailbox) Get() (Message, bool) {
	mb.spinWait()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.count == 0 && !mb.closed && !mb.cancelled {
		mb.cond.Wait()
	}
	if mb.cancelled || mb.count == 0 {
		return Message{}, false
	}
	return mb.popLocked(), true
}

// GetBatch blocks until at least one message is available (or the mailbox
// is closed and drained) and dequeues up to len(dst) messages into dst
// under one lock acquisition, returning the number dequeued.
func (mb *Mailbox) GetBatch(dst []Message) (int, bool) {
	if len(dst) == 0 {
		return 0, true
	}
	mb.spinWait()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.count == 0 && !mb.closed && !mb.cancelled {
		mb.cond.Wait()
	}
	if mb.cancelled || mb.count == 0 {
		return 0, false
	}
	n := len(dst)
	if n > mb.count {
		n = mb.count
	}
	for i := 0; i < n; i++ {
		dst[i] = mb.popLocked()
	}
	return n, true
}

// TryGetBatch dequeues up to len(dst) immediately available messages
// without blocking and reports whether the mailbox is finished: cancelled,
// or closed and fully drained. n > 0 implies done == false. Consumers that
// park on their own signal (the wire transport's writer) drain with this
// instead of GetBatch.
func (mb *Mailbox) TryGetBatch(dst []Message) (n int, done bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.cancelled {
		return 0, true
	}
	if mb.count == 0 {
		return 0, mb.closed
	}
	n = len(dst)
	if n > mb.count {
		n = mb.count
	}
	for i := 0; i < n; i++ {
		dst[i] = mb.popLocked()
	}
	return n, false
}

// EmptyOpen reports, under the mailbox lock, that the queue is empty and
// still accepting messages. The wire transport's inline-send fast path uses
// it as an ordering guard: acquiring the lock here synchronizes with the
// consumer's most recent dequeue, so a caller that observes EmptyOpen and
// then observes the consumer parked knows no dequeued-but-unprocessed
// message can exist.
func (mb *Mailbox) EmptyOpen() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.count == 0 && !mb.closed && !mb.cancelled
}

// TryGet dequeues a message if one is immediately available.
func (mb *Mailbox) TryGet() (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.cancelled || mb.count == 0 {
		return Message{}, false
	}
	return mb.popLocked(), true
}

// Len returns the number of queued messages.
func (mb *Mailbox) Len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.count
}

// Close marks the mailbox closed and wakes all blocked receivers. Queued
// messages remain receivable.
func (mb *Mailbox) Close() {
	mb.mu.Lock()
	mb.closed = true
	mb.ready.Store(1)
	if mb.count == 0 {
		mb.releaseRing()
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// Cancel aborts the mailbox: queued messages are dropped (releasing any
// rendezvous senders and shared payload references), further Puts are
// dropped, and receivers return !ok.
func (mb *Mailbox) Cancel() {
	mb.mu.Lock()
	mb.cancelled = true
	mb.ready.Store(1)
	for i := 0; i < mb.count; i++ {
		dropMessage(mb.buf[(mb.head+i)%len(mb.buf)])
	}
	mb.count = 0
	mb.releaseRing()
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// dropMessage discards an undeliverable message: it releases a blocked
// rendezvous sender and drops the payload's shared wire reference so pooled
// fan-out buffers still return to the arena on a cancelled run.
func dropMessage(m Message) {
	if m.done != nil {
		close(m.done)
	}
	m.Payload.Release()
}

// dropMessages discards a slice of undeliverable messages.
func dropMessages(ms []Message) {
	for _, m := range ms {
		dropMessage(m)
	}
}
