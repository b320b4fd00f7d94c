// Package wire is the TCP transport of the runtime: a fabric.Transport
// implementation whose ranks are OS processes (or in-process listeners)
// connected by a full mesh of TCP connections, so the same task graphs,
// controllers and conformance suite that run over the in-memory fabric run
// unchanged across machine boundaries.
//
// Topology and bootstrap: every rank, rank 0 included, opens its data
// listeners; every other rank then registers with rank 0 on a well-known
// rendezvous address (rank id, rank count, epoch, tier, graph fingerprint,
// data endpoints). Rank 0 answers every registration with the endpoint
// table, and the registration connections close. Every rank then links
// every pair the same way — rank i dials each j < i and accepts each
// j > i — over the link one tier table (linkFor) picks for the pair. Every
// connection begins with a hello carrying the canonical graph fingerprint
// (core.GraphFingerprint); a mismatch is rejected with ErrHandshake,
// catching mismatched binaries at connection time instead of as a hang or
// a corrupted dataflow.
//
// Transport tiers: each rank advertises a host identity alongside its TCP
// data address, plus a unix-domain data listener and a shared-memory ring
// directory when the tier allows them. Under TierAuto (the default) a pair
// of co-located ranks — matching host identities — negotiates a mmap'd
// SPSC ring pair (shmpeer.go) and moves data frames through shared memory
// with zero syscalls, falling back to the unix socket when a region cannot
// be mapped, while cross-host pairs stay on TCP; the framing, CRC
// protection and heartbeats are identical on every tier. TierTCP forces
// TCP everywhere; TierUnix and TierShm require every pair to be co-located
// and fail the bootstrap otherwise.
//
// Data path: frames are length-prefixed (frame.go). Each peer has an
// unbounded outbox (the same pooled ring-buffer mailbox the in-memory
// fabric uses) drained by one writer goroutine that hands a whole batch to
// the kernel as one vectored write (writev) of header and payload slices —
// SendN's fan-out costs one syscall, zero intermediate copy. When the
// writer is parked and the outbox empty, Send takes an inline fast path
// and writes the frame from the sender's goroutine, eliminating the
// writer-goroutine handoff that dominates small-message round-trip
// latency. Payload bytes are read into arena buffers (core.GrabBuffer) on
// receive. One outbox + one writer + one reader per pair preserves the
// in-memory fabric's pairwise FIFO delivery order.
//
// Robustness: per-connection heartbeats bound failure detection — a peer
// that stops writing for HeartbeatTimeout is declared lost with a typed
// error wrapping ErrPeerLost, cancelling the local mailbox so the
// controller unwinds instead of hanging. Shutdown drains every outbox,
// sends a goodbye frame (after which an EOF is clean, not a failure) and
// waits for the peers' goodbyes, so in-flight payloads are delivered
// before the process exits.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// Typed error surface of the transport.
var (
	// ErrPeerLost marks a peer that disconnected without a goodbye or went
	// silent past the heartbeat timeout. It aliases fabric.ErrPeerLost so
	// controllers can classify peer loss without importing the transport.
	ErrPeerLost = fabric.ErrPeerLost
	// ErrHandshake marks a rendezvous or pairwise handshake refusal —
	// mismatched fingerprint, rank count, epoch, or duplicate rank.
	ErrHandshake = errors.New("wire: handshake failed")
)

// Tier selects the transport used for data connections between rank pairs.
type Tier int

const (
	// TierAuto picks the fastest workable transport per pair: a
	// shared-memory ring when both ranks are co-located and can map one, a
	// unix-domain socket when merely co-located, TCP otherwise.
	TierAuto Tier = iota
	// TierTCP forces TCP for every pair — the pre-tier behavior.
	TierTCP
	// TierUnix requires unix-domain sockets for every pair; the bootstrap
	// fails if any two ranks are not co-located or a socket cannot be
	// opened.
	TierUnix
	// TierShm requires a shared-memory ring pair for every pair: data
	// frames move through a lock-free mmap'd SPSC ring with zero syscalls
	// and zero copies out of the arena, with the companion unix socket
	// carrying only doorbells, heartbeats and goodbyes. The bootstrap
	// fails if any two ranks are not co-located or a region cannot be
	// mapped.
	TierShm
)

// ParseTier converts a flag/config string ("auto", "tcp", "unix", "shm")
// to a Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "auto":
		return TierAuto, nil
	case "tcp":
		return TierTCP, nil
	case "unix":
		return TierUnix, nil
	case "shm":
		return TierShm, nil
	}
	return TierAuto, fmt.Errorf("wire: unknown transport tier %q (want auto, tcp, unix or shm)", s)
}

func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierTCP:
		return "tcp"
	case TierUnix:
		return "unix"
	case TierShm:
		return "shm"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// sameHostOnly reports whether the tier refuses cross-host pairs.
func (t Tier) sameHostOnly() bool { return t == TierUnix || t == TierShm }

// Options configures Connect.
type Options struct {
	// Rank is this process's rank, Ranks the total count.
	Rank, Ranks int
	// Addr is the rendezvous address rank 0 listens on and every other
	// rank dials, e.g. "127.0.0.1:7000".
	Addr string
	// Listener, when non-nil on rank 0, is the pre-bound rendezvous
	// listener (for tests and launchers that pick a free port). Connect
	// takes ownership.
	Listener net.Listener
	// Fingerprint is the canonical graph/callback fingerprint every rank
	// must present (core.GraphFingerprint). Peers whose fingerprints differ
	// are rejected during the handshake.
	Fingerprint core.Fingerprint
	// DialTimeout bounds the whole bootstrap: rendezvous plus pairwise
	// dials, with exponential backoff on refused connections. Default 15s.
	DialTimeout time.Duration
	// HeartbeatInterval is how often an idle connection emits a heartbeat
	// frame. Default 1s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a connection may stay silent before its
	// peer is declared lost. Default 4 * HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// Tier selects the data-connection transport: TierAuto (default)
	// prefers shared-memory rings between co-located ranks, then
	// unix-domain sockets, then TCP across hosts; TierTCP forces TCP,
	// TierUnix and TierShm require same-host placement. All ranks must
	// agree; the handshake rejects tier mismatches.
	Tier Tier
	// ShmRingBytes is the per-direction capacity of each pair's
	// shared-memory ring, rounded up to a power of two, minimum 4 KiB.
	// Default 1 MiB. Frames larger than the ring stream through it in
	// chunks; small rings are mainly a test hook for wrap/backpressure
	// coverage.
	ShmRingBytes int
	// HostID overrides the host identity advertised during bootstrap, used
	// by TierAuto to detect co-location. Empty means the real identity
	// (hostname plus boot id); tests set distinct values to simulate
	// cross-host placement on one machine.
	HostID string
	// Epoch is the recovery generation of this mesh. A fault-tolerant
	// coordinator bumps it on every rejoin, so a straggling peer from a
	// previous generation is rejected at handshake time (same rendezvous
	// flow, same fingerprint check) instead of corrupting the new epoch's
	// dataflow. Plain runs leave it zero.
	Epoch int
	// WrapConn, when non-nil, wraps every established data connection after
	// the handshake — a fault-injection hook (bit flips, stalls) used by
	// the conformance suite. localRank is this fabric's rank, peerRank the
	// connection's remote end.
	WrapConn func(localRank, peerRank int, c net.Conn) net.Conn
}

func (o *Options) setDefaults() error {
	if o.Ranks < 1 {
		return fmt.Errorf("wire: need at least one rank, got %d", o.Ranks)
	}
	if o.Rank < 0 || o.Rank >= o.Ranks {
		return fmt.Errorf("wire: rank %d out of range [0,%d)", o.Rank, o.Ranks)
	}
	if o.Addr == "" && o.Listener == nil {
		return fmt.Errorf("wire: rendezvous address required")
	}
	if o.Tier < TierAuto || o.Tier > TierShm {
		return fmt.Errorf("wire: invalid transport tier %d", int(o.Tier))
	}
	if o.ShmRingBytes <= 0 {
		o.ShmRingBytes = defaultShmRingBytes
	}
	// Round up to a power of two (the ring masks cursors), at least the
	// minimum that fits one maximum inline frame.
	n := minShmRingBytes
	for n < o.ShmRingBytes {
		n <<= 1
	}
	o.ShmRingBytes = n
	if o.HostID == "" {
		o.HostID = defaultHostID()
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 15 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 4 * o.HeartbeatInterval
	}
	return nil
}

// peer is one remote rank: its duplex connection, outbound queue and writer
// state.
type peer struct {
	rank   int
	conn   net.Conn
	outbox *fabric.Mailbox

	// vectored marks a raw TCP/Unix connection whose batches go to the
	// kernel as one writev of header and payload slices. Wrapped
	// connections (fault injectors) instead get the coalesced single-Write
	// form, preserving their one-Write-per-batch counting contract.
	vectored bool

	// wake is the writer's park signal (capacity 1). Senders poke it after
	// every enqueue; the writer drains the outbox with TryGetBatch and
	// blocks here when it runs dry. idle is true only while the writer is
	// parked — the window in which it provably holds no dequeued frames —
	// which is what licenses the inline-send fast path.
	wake chan struct{}
	idle atomic.Bool

	wmu         sync.Mutex // serializes data, heartbeat and goodbye writes
	saidGoodbye bool       // guarded by wmu; no writes after goodbye
	lastWrite   atomic.Int64

	// ihdr is the inline-send header scratch, guarded by wmu, so the fast
	// path performs zero allocations.
	ihdr [DataFrameOverhead]byte

	departed atomic.Bool // peer sent goodbye; EOF is now clean

	// shm, when non-nil, is this pair's shared-memory ring link: data
	// frames move through the mapped rings and the socket above carries
	// only doorbells, heartbeats and goodbyes.
	shm *shmLink
}

// poke wakes the peer's writer if it is parked. The channel has capacity
// one, so pokes never block and collapse while the writer is mid-drain.
func (p *peer) poke() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Fabric is the TCP transport: one per process (or per in-process rank),
// implementing fabric.Transport for the full rank set with the local rank's
// mailbox in memory and every other rank behind a connection.
type Fabric struct {
	opt   Options
	local *fabric.Mailbox
	peers []*peer // indexed by rank; nil at the local rank

	messages atomic.Uint64 // egress inter-rank traffic
	bytes    atomic.Uint64

	errMu     sync.Mutex
	firstErr  error
	lost      map[int]bool // ranks observed dead before cancellation
	cancelled atomic.Bool
	fenced    atomic.Bool // epoch fence open: liveness timeouts suspended
	done      chan struct{} // closed on Cancel/Shutdown/Kill: stops heartbeats
	doneOnce  sync.Once

	writers sync.WaitGroup
	readers sync.WaitGroup
}

// Connect bootstraps the mesh and returns a running fabric. It blocks until
// every rank pair is connected and fingerprint-verified, or fails with an
// error wrapping ErrHandshake (mismatched peer) or the underlying network
// error (rendezvous unreachable within DialTimeout).
func Connect(opt Options) (*Fabric, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	f := &Fabric{
		opt:   opt,
		local: fabric.NewMailbox(),
		peers: make([]*peer, opt.Ranks),
		done:  make(chan struct{}),
	}
	conns, regs, err := bootstrap(opt)
	if err != nil {
		return nil, err
	}
	anyShm := false
	for r, c := range conns {
		if c == nil {
			continue
		}
		if opt.WrapConn != nil {
			c = opt.WrapConn(opt.Rank, r, c)
		}
		p := &peer{
			rank: r, conn: c, outbox: fabric.NewMailbox(),
			wake: make(chan struct{}, 1),
		}
		switch c.(type) {
		case *net.TCPConn, *net.UnixConn:
			p.vectored = true
		}
		p.lastWrite.Store(time.Now().UnixNano())
		if regs != nil && regs[r] != nil {
			p.shm = newShmLink(regs[r])
			anyShm = true
		}
		f.peers[r] = p
	}
	// Start the loops only once every peer is in place: a loop that fails
	// straight away cancels the fabric, which walks f.peers.
	for _, p := range f.peers {
		if p == nil {
			continue
		}
		f.writers.Add(1)
		f.readers.Add(1)
		if p.shm != nil {
			go f.shmWriteLoop(p)
			go f.shmReadLoop(p)
		} else {
			go f.writeLoop(p)
			go f.readLoop(p)
		}
	}
	go f.heartbeatLoop()
	if anyShm {
		// Unmapping a region while any goroutine can still touch its rings
		// would be a fault, so the reaper waits for every loop to exit and
		// the fabric to be done before releasing the mappings.
		go func() {
			f.writers.Wait()
			f.readers.Wait()
			<-f.done
			for _, p := range f.peers {
				if p != nil && p.shm != nil {
					p.shm.region.close()
				}
			}
		}()
	}
	return f, nil
}

// Ranks implements fabric.Transport.
func (f *Fabric) Ranks() int { return f.opt.Ranks }

// PeerNetwork reports the network ("tcp", "unix", "shm") carrying data
// frames to rank, or "" for the local rank — the observable outcome of the
// tier selection, for tests, benchmarks and the serve metrics endpoint.
func (f *Fabric) PeerNetwork(rank int) string {
	if rank < 0 || rank >= f.opt.Ranks || f.peers[rank] == nil {
		return ""
	}
	if f.peers[rank].shm != nil {
		return "shm"
	}
	return f.peers[rank].conn.LocalAddr().Network()
}

// CorruptNextShmFrame arms a one-shot fault injection on the shm link to
// peerRank: the next data frame written into the ring is stamped with a
// deliberately wrong CRC, so the receiver decodes it as a torn ring
// (ErrCorruptFrame) and declares this peer lost — the shm analogue of the
// conformance suite's socket bit-flip injector, which cannot reach ring
// traffic through WrapConn. Returns false when the pair has no shm link.
func (f *Fabric) CorruptNextShmFrame(peerRank int) bool {
	if peerRank < 0 || peerRank >= f.opt.Ranks || f.peers[peerRank] == nil || f.peers[peerRank].shm == nil {
		return false
	}
	f.peers[peerRank].shm.corrupt.Store(true)
	return true
}

// LocalRank returns the rank this fabric instance serves.
func (f *Fabric) LocalRank() int { return f.opt.Rank }

// Send implements fabric.Transport. Messages to the local rank are
// in-memory hand-offs. Remote messages take the inline fast path when the
// peer's writer is provably quiescent (see sendDirect); otherwise they are
// enqueued on the destination peer's outbox for the writer to flush.
func (f *Fabric) Send(m fabric.Message) error {
	if m.To < 0 || m.To >= f.opt.Ranks {
		m.Payload.Release()
		return fmt.Errorf("wire: send to unknown rank %d", m.To)
	}
	if m.To == f.opt.Rank {
		if err := f.local.Put(m); err != nil {
			return fmt.Errorf("wire: rank %d: %w", m.To, err)
		}
		return nil
	}
	p := f.peers[m.To]
	if p.shm != nil {
		if f.sendDirectShm(p, m) {
			return nil
		}
	} else if f.sendDirect(p, m) {
		return nil
	}
	if err := p.outbox.Put(m); err != nil {
		return fmt.Errorf("wire: rank %d: %w", m.To, err)
	}
	p.poke()
	return nil
}

const (
	// inlineMax bounds the payload size the inline path will write from the
	// sender's goroutine. Larger frames go through the writer so the sender
	// overlaps serialization with its own work instead of blocking on the
	// kernel.
	inlineMax = 8 << 10
	// inlineGap is the minimum quiet time on the connection before a send
	// is written inline. Request-response traffic (one message per round
	// trip) clears it and saves the writer-goroutine handoff; back-to-back
	// streaming stays under it and keeps the writer's batched writev
	// amortization.
	inlineGap = 2 * time.Microsecond
	// vectorMin is the smallest payload handed to the kernel as its own
	// iovec. Measured on loopback: per-iovec kernel cost beats the memcpy
	// only from the mid-KiB range up (~1.3x at 16 KiB, ~2x at 64 KiB),
	// while for small frames a coalesced copy wins by >2x — so a batch is
	// gathered as staging-buffer runs of headers + small payloads,
	// interleaved with large payloads referenced zero-copy.
	vectorMin = 16 << 10
)

// sendDirect is the latency fast path: when the peer's writer is parked
// and its outbox empty, the sender encodes and writes the frame itself
// under the write lock — the kernel gets the bytes with no goroutine
// handoff. Pairwise FIFO is preserved because the path is taken only when
// nothing is queued ahead: the outbox emptiness check acquires the mailbox
// lock, which synchronizes with the writer's most recent dequeue, so the
// subsequent idle load cannot observe a stale "parked" while the writer
// still holds undelivered frames. It returns true when the message was
// consumed (written, or failed with the peer declared lost — matching the
// asynchronous error surface of the writer path).
func (f *Fabric) sendDirect(p *peer, m fabric.Message) bool {
	now := time.Now()
	if now.UnixNano()-p.lastWrite.Load() < int64(inlineGap) {
		return false
	}
	if !p.wmu.TryLock() {
		return false
	}
	// Ordering matters: EmptyOpen before the idle load (see above).
	if p.saidGoodbye || !p.outbox.EmptyOpen() || !p.idle.Load() {
		p.wmu.Unlock()
		return false
	}
	w, err := m.Payload.Wire()
	if err != nil || len(w) > inlineMax {
		// Serialization failures take the writer path too, so they are
		// reported identically on both paths.
		p.wmu.Unlock()
		return false
	}
	encodeDataHeader(p.ihdr[:], m.Src, m.Dest, m.Run, m.Seq, m.Attempt, w)
	p.conn.SetWriteDeadline(now.Add(f.opt.HeartbeatTimeout))
	var werr error
	if len(w) == 0 {
		_, werr = p.conn.Write(p.ihdr[:])
	} else {
		// Inline payloads are bounded by inlineMax, well under vectorMin:
		// copying beside the header is cheaper than a second iovec.
		buf := core.GrabBuffer(DataFrameOverhead + len(w))
		copy(buf, p.ihdr[:])
		copy(buf[DataFrameOverhead:], w)
		_, werr = p.conn.Write(buf)
		core.ReleaseBuffer(buf)
	}
	p.lastWrite.Store(now.UnixNano())
	p.wmu.Unlock()
	m.Payload.Release()
	if werr != nil {
		f.failPeer(p.rank, fmt.Errorf("wire: rank %d: write to rank %d: 1 frame undelivered: %w (%v)",
			f.opt.Rank, p.rank, ErrPeerLost, werr))
		return true
	}
	f.messages.Add(1)
	f.bytes.Add(uint64(len(w)))
	return true
}

// SendN implements fabric.Transport: runs of consecutive messages to the
// same rank are enqueued under one lock acquisition and flushed by the
// destination's writer as one coalesced write.
func (f *Fabric) SendN(ms []fabric.Message) error {
	for i := range ms {
		if ms[i].To < 0 || ms[i].To >= f.opt.Ranks {
			releaseAll(ms)
			return fmt.Errorf("wire: send to unknown rank %d", ms[i].To)
		}
	}
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && ms[j].To == ms[i].To {
			j++
		}
		var err error
		if ms[i].To == f.opt.Rank {
			err = f.local.PutN(ms[i:j])
		} else {
			p := f.peers[ms[i].To]
			err = p.outbox.PutN(ms[i:j])
			if err == nil {
				p.poke()
			}
		}
		if err != nil {
			releaseAll(ms[j:])
			return fmt.Errorf("wire: rank %d: %w", ms[i].To, err)
		}
		i = j
	}
	return nil
}

func releaseAll(ms []fabric.Message) {
	for i := range ms {
		ms[i].Payload.Release()
	}
}

// Recv implements fabric.Transport. Only the local rank is receivable: a
// remote rank's mailbox lives in its own process.
func (f *Fabric) Recv(rank int) (fabric.Message, bool) {
	f.mustBeLocal(rank)
	return f.local.Get()
}

// RecvBatch implements fabric.Transport.
func (f *Fabric) RecvBatch(rank int, dst []fabric.Message) (int, bool) {
	f.mustBeLocal(rank)
	return f.local.GetBatch(dst)
}

// TryRecv dequeues a local message if one is immediately available.
func (f *Fabric) TryRecv(rank int) (fabric.Message, bool) {
	f.mustBeLocal(rank)
	return f.local.TryGet()
}

func (f *Fabric) mustBeLocal(rank int) {
	if rank != f.opt.Rank {
		panic(fmt.Sprintf("wire: receive on rank %d, but this fabric serves rank %d", rank, f.opt.Rank))
	}
}

// Close implements fabric.Transport. Closing the local rank closes its
// mailbox (queued messages remain receivable). Closing a remote rank
// half-closes the pair: the outbox stops accepting, the writer drains it,
// says goodbye and stops.
func (f *Fabric) Close(rank int) {
	if rank == f.opt.Rank {
		f.local.Close()
		return
	}
	if rank >= 0 && rank < f.opt.Ranks {
		f.peers[rank].outbox.Close()
		f.peers[rank].poke()
	}
}

// Cancel implements fabric.Transport: it aborts all communication —
// queued messages are dropped with their payload references released,
// receivers return !ok, and every connection is torn down so remote peers
// observe the abort promptly (as a lost peer) instead of timing out.
func (f *Fabric) Cancel() {
	f.cancelled.Store(true)
	f.doneOnce.Do(func() { close(f.done) })
	f.local.Cancel()
	for _, p := range f.peers {
		if p != nil {
			p.outbox.Cancel()
			p.conn.Close()
			p.poke()
		}
	}
}

// Fence opens (on=true) or closes (on=false) the epoch fence: while open,
// read-deadline expiries are NOT treated as peer loss. A membership change
// freezes every rank at a journal-consistent point before the epoch is torn
// down, and that freeze can outlast the heartbeat timeout — without the
// fence a slow flush reads as peer death and one join would cascade into an
// epoch storm. Connection closures, resets and corrupt frames still fail
// the peer: the fence suspends liveness timers, not failure detection.
func (f *Fabric) Fence(on bool) {
	f.fenced.Store(on)
}

// isTimeout reports whether err is a network timeout (an expired read or
// write deadline) rather than a closed or broken connection.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Err implements fabric.Transport: the first transport-level failure (a
// typed error wrapping ErrPeerLost for lost peers), nil for clean runs and
// controller-initiated cancellation.
func (f *Fabric) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.firstErr
}

// Snapshot implements fabric.Transport. A process counts its egress
// traffic; summing snapshots across ranks yields the global totals the
// in-memory fabric reports.
func (f *Fabric) Snapshot() fabric.Stats {
	return fabric.Stats{Messages: f.messages.Load(), Bytes: f.bytes.Load()}
}

// Shutdown drains the fabric gracefully: it stops heartbeats, closes every
// outbox so the writers flush all in-flight payloads and say goodbye, then
// waits (up to timeout) for every peer's goodbye before closing the
// connections. It returns the fabric's first error, if any — a clean
// multi-process run ends with every rank's Shutdown returning nil.
func (f *Fabric) Shutdown(timeout time.Duration) error {
	f.doneOnce.Do(func() { close(f.done) })
	for _, p := range f.peers {
		if p != nil {
			p.outbox.Close()
			p.poke()
		}
	}
	f.writers.Wait()

	// Writers have exited; anything still queued in an outbox was dropped by
	// a failed writer and will never be delivered. Count it so the drain
	// reports partial delivery instead of silently discarding frames.
	undelivered := 0
	for _, p := range f.peers {
		if p != nil {
			undelivered += p.outbox.Len()
		}
	}

	readersDone := make(chan struct{})
	go func() {
		f.readers.Wait()
		close(readersDone)
	}()
	select {
	case <-readersDone:
	case <-time.After(timeout):
		f.fail(fmt.Errorf("wire: shutdown: peers still active after %v, %d queued frame(s) undelivered: %w",
			timeout, undelivered, ErrPeerLost))
	}
	for _, p := range f.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	f.local.Close()
	return f.Err()
}

// Kill abruptly severs every connection without goodbye or drain — a test
// hook simulating the death of this rank's process. Peers observe it as a
// lost peer within the heartbeat timeout.
func (f *Fabric) Kill() {
	f.cancelled.Store(true)
	f.doneOnce.Do(func() { close(f.done) })
	f.local.Cancel()
	for _, p := range f.peers {
		if p != nil {
			p.outbox.Cancel()
			p.conn.Close()
			p.poke()
		}
	}
}

// fail records the first transport-level failure and cancels the fabric so
// the controller unwinds. Failures reported after a deliberate Cancel/Kill
// are teardown noise and are dropped.
func (f *Fabric) fail(err error) {
	if f.cancelled.Load() {
		return
	}
	f.errMu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.errMu.Unlock()
	f.Cancel()
}

// failPeer records rank as a lost peer, then fails the fabric. Losses
// observed after cancellation are teardown noise and are dropped, so the
// lost set names the peer(s) implicated in the first failure — the input a
// recovery coordinator reassigns around.
func (f *Fabric) failPeer(rank int, err error) {
	if f.cancelled.Load() {
		return
	}
	f.errMu.Lock()
	if f.lost == nil {
		f.lost = make(map[int]bool)
	}
	f.lost[rank] = true
	f.errMu.Unlock()
	f.fail(err)
}

// LostPeers implements fabric.LossReporter: the ranks this fabric observed
// as dead before it was cancelled, ascending.
func (f *Fabric) LostPeers() []int {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	if len(f.lost) == 0 {
		return nil
	}
	out := make([]int, 0, len(f.lost))
	for r := range f.lost {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// writeLoop drains one peer's outbox. A whole batch reaches the kernel as
// one syscall: headers and small payloads are gathered into a contiguous
// staging run, payloads of vectorMin and up are referenced zero-copy as
// their own iovecs, and the resulting vector goes out as one writev (or a
// plain write when everything staged). Wrapped connections (fault
// injectors counting Write calls) always stage fully, preserving their
// one-Write-per-batch counting contract. When the outbox closes (Shutdown
// or Close of the pair) the loop flushes what remains and says goodbye;
// when it is cancelled the loop exits immediately (the connections are
// already being torn down). Between drains the writer parks on p.wake,
// publishing its quiescence through p.idle so Send may write inline.
func (f *Fabric) writeLoop(p *peer) {
	defer f.writers.Done()
	const maxBatch = 64
	batch := make([]fabric.Message, maxBatch)
	wires := make([][]byte, maxBatch)
	vecs := make(net.Buffers, 0, 2*maxBatch)
	for {
		n, done := p.outbox.TryGetBatch(batch)
		if n == 0 {
			if done {
				if !f.cancelled.Load() {
					p.wmu.Lock()
					if !p.saidGoodbye {
						p.saidGoodbye = true
						p.conn.SetWriteDeadline(time.Now().Add(f.opt.HeartbeatTimeout))
						p.conn.Write(controlFrame(frameGoodbye))
					}
					p.wmu.Unlock()
				}
				return
			}
			// Publish quiescence, then park. Senders poke after every
			// enqueue (the channel holds one token), so no wakeup is lost;
			// while idle is set, sendDirect may write frames itself.
			p.idle.Store(true)
			<-p.wake
			p.idle.Store(false)
			continue
		}
		// Serialize every payload and size the staging buffer: headers and
		// small payloads are copied into one contiguous staging run, while
		// payloads of vectorMin and up stay zero-copy as their own iovecs
		// (on a wrapped, non-vectored connection everything is staged so the
		// batch remains exactly one Write call).
		var payloadBytes uint64
		stageTotal := 0
		bad := false
		for i := 0; i < n; i++ {
			w, err := batch[i].Payload.Wire()
			if err != nil {
				f.fail(fmt.Errorf("wire: rank %d -> %d: task %d payload: %w",
					f.opt.Rank, p.rank, batch[i].Src, err))
				bad = true
				break
			}
			wires[i] = w
			stageTotal += DataFrameOverhead
			if len(w) < vectorMin || !p.vectored {
				stageTotal += len(w)
			}
			payloadBytes += uint64(len(w))
		}
		if bad {
			releaseAll(batch[:n])
			clearMessages(batch[:n])
			return
		}
		vecs = vecs[:0]
		stage := core.GrabBuffer(stageTotal)[:0]
		runStart := 0
		for i := 0; i < n; i++ {
			w := wires[i]
			off := len(stage)
			stage = stage[:off+DataFrameOverhead]
			encodeDataHeader(stage[off:], batch[i].Src, batch[i].Dest, batch[i].Run, batch[i].Seq, batch[i].Attempt, w)
			if len(w) < vectorMin || !p.vectored {
				stage = append(stage, w...)
				continue
			}
			// Close the current staging run and reference the payload
			// directly.
			if len(stage) > runStart {
				vecs = append(vecs, stage[runStart:len(stage):len(stage)])
			}
			vecs = append(vecs, w)
			runStart = len(stage)
		}
		if len(stage) > runStart {
			vecs = append(vecs, stage[runStart:])
		}
		// One clock read serves the write deadline and the heartbeat
		// bookkeeping for the whole drained batch.
		now := time.Now()
		p.wmu.Lock()
		p.conn.SetWriteDeadline(now.Add(f.opt.HeartbeatTimeout))
		var err error
		if len(vecs) == 1 {
			_, err = p.conn.Write(vecs[0])
		} else {
			bufs := vecs // WriteTo consumes its receiver; keep vecs reusable
			_, err = bufs.WriteTo(p.conn)
		}
		p.lastWrite.Store(now.UnixNano())
		p.wmu.Unlock()
		clear(vecs)
		core.ReleaseBuffer(stage)
		releaseAll(batch[:n])
		clearMessages(batch[:n])
		if err != nil {
			// The failed write plus whatever is still queued behind it will
			// never reach the peer; surface the count so partial delivery is
			// observable instead of silent.
			undelivered := n + p.outbox.Len()
			f.failPeer(p.rank, fmt.Errorf("wire: rank %d: write to rank %d: %d frame(s) undelivered: %w (%v)",
				f.opt.Rank, p.rank, undelivered, ErrPeerLost, err))
			return
		}
		f.messages.Add(uint64(n))
		f.bytes.Add(payloadBytes)
	}
}

func clearMessages(ms []fabric.Message) {
	for i := range ms {
		ms[i] = fabric.Message{}
	}
}

// readLoop consumes one peer's frames: data frames become local mailbox
// deliveries with arena-backed payloads, heartbeats refresh the liveness
// deadline, goodbye marks the peer cleanly departed. Any other end of
// stream is a lost peer.
func (f *Fabric) readLoop(p *peer) {
	defer f.readers.Done()
	const rxBatch = 64
	br := newConnReader(p.conn, 64<<10)
	batch := make([]fabric.Message, 0, rxBatch)
	// The read deadline is re-armed lazily: a fresh deadline is only needed
	// when an armed one has aged enough to bite early, so a busy connection
	// pays one timer modification per half heartbeat interval instead of
	// one per frame. Worst case the peer is declared lost half an interval
	// late, well inside the failure-detection contract.
	var armed time.Time
	for {
		if now := time.Now(); now.Sub(armed) > f.opt.HeartbeatInterval/2 {
			armed = now
			p.conn.SetReadDeadline(now.Add(f.opt.HeartbeatTimeout))
		}
		m, typ, err := f.readOne(p, br)
		if err != nil {
			if f.cancelled.Load() || p.departed.Load() {
				return
			}
			if f.fenced.Load() && isTimeout(err) {
				// An epoch fence is open: the peer may be stalled flushing
				// journals for a membership change, so a quiet connection is
				// not evidence of death. Re-arm and keep listening; closures
				// and corrupt frames still fail below.
				armed = time.Time{}
				continue
			}
			// Both sentinels are wrapped: recovery classifies this as peer
			// loss, while errors.Is(err, ErrCorruptFrame) still identifies
			// an integrity failure.
			f.failPeer(p.rank, fmt.Errorf("wire: rank %d: peer %d: %w (%w)", f.opt.Rank, p.rank, ErrPeerLost, err))
			return
		}
		switch typ {
		case frameGoodbye:
			p.departed.Store(true)
			return
		case frameHeartbeat:
			continue
		}
		batch = append(batch[:0], m)
		// Greedy drain: decode every data frame already buffered — without
		// blocking — so a burst is delivered under one mailbox lock.
		var drainErr error
		for len(batch) < rxBatch {
			m, ok, err := f.tryReadBuffered(p, br)
			if err != nil {
				// The frame was consumed but failed decode (CRC mismatch,
				// bad length): the stream is untrustworthy from here on.
				// Deliver the intact prefix, then declare the peer lost.
				drainErr = err
				break
			}
			if !ok {
				break
			}
			batch = append(batch, m)
		}
		if err := f.local.PutN(batch); err != nil {
			// Local mailbox closed or cancelled: the run is over.
			clearMessages(batch)
			return
		}
		clearMessages(batch)
		if drainErr != nil {
			if f.cancelled.Load() || p.departed.Load() {
				return
			}
			f.failPeer(p.rank, fmt.Errorf("wire: rank %d: peer %d: %w (%w)", f.opt.Rank, p.rank, ErrPeerLost, drainErr))
			return
		}
	}
}

// readOne reads the next frame, blocking, verifying its CRC32C. Data
// frames return the decoded message; control frames return their type with
// a zero message.
func (f *Fabric) readOne(p *peer, br *connReader) (fabric.Message, byte, error) {
	typ, n, crc, err := readFrame(br)
	if err != nil {
		return fabric.Message{}, 0, err
	}
	switch typ {
	case frameHeartbeat, frameGoodbye:
		if n != 0 {
			return fabric.Message{}, 0, fmt.Errorf("wire: control frame with %d-byte body", n)
		}
		if err := verifyBody(typ, nil, crc); err != nil {
			return fabric.Message{}, 0, err
		}
		return fabric.Message{}, typ, nil
	case frameData:
		m, err := f.readDataBody(p, br, n, crc)
		return m, frameData, err
	default:
		return fabric.Message{}, 0, fmt.Errorf("wire: unexpected frame type %d in data phase", typ)
	}
}

func (f *Fabric) readDataBody(p *peer, br io.Reader, n int, crc uint32) (fabric.Message, error) {
	if n < dataHeaderSize {
		return fabric.Message{}, fmt.Errorf("wire: data frame of %d bytes", n)
	}
	var hdr [dataHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fabric.Message{}, err
	}
	src := core.TaskId(le64(hdr[0:]))
	dest := core.TaskId(le64(hdr[8:]))
	run := le64(hdr[16:])
	seq := le64(hdr[24:])
	attempt := le32(hdr[32:])
	payload := core.GrabBuffer(n - dataHeaderSize)
	if _, err := io.ReadFull(br, payload); err != nil {
		core.ReleaseBuffer(payload)
		return fabric.Message{}, err
	}
	got := crc32.Update(0, castagnoli, hdr[:])
	got = crc32.Update(got, castagnoli, payload)
	if got != crc {
		core.ReleaseBuffer(payload)
		return fabric.Message{}, fmt.Errorf("%w: data frame src %d dest %d, crc %08x != header %08x",
			ErrCorruptFrame, src, dest, got, crc)
	}
	return fabric.Message{
		From: p.rank, To: f.opt.Rank, Src: src, Dest: dest,
		Run: run, Seq: seq, Attempt: attempt,
		Payload: core.Buffer(payload),
	}, nil
}

// decodeDataBytes is readDataBody over an in-memory body — the shm ring's
// in-place fast path. Semantics are identical: same CRC coverage, same
// arena-backed payload, same message fields.
func (f *Fabric) decodeDataBytes(p *peer, body []byte, crc uint32) (fabric.Message, error) {
	if len(body) < dataHeaderSize {
		return fabric.Message{}, fmt.Errorf("wire: data frame of %d bytes", len(body))
	}
	if got := crc32.Checksum(body, castagnoli); got != crc {
		return fabric.Message{}, fmt.Errorf("%w: data frame src %d dest %d, crc %08x != header %08x",
			ErrCorruptFrame, le64(body[0:]), le64(body[8:]), got, crc)
	}
	payload := core.GrabBuffer(len(body) - dataHeaderSize)
	copy(payload, body[dataHeaderSize:])
	return fabric.Message{
		From: p.rank, To: f.opt.Rank,
		Src: core.TaskId(le64(body[0:])), Dest: core.TaskId(le64(body[8:])),
		Run: le64(body[16:]), Seq: le64(body[24:]), Attempt: le32(body[32:]),
		Payload: core.Buffer(payload),
	}, nil
}

// tryReadBuffered decodes one more data frame only if it is already fully
// buffered; it never blocks. Control frames end the greedy drain (they are
// rare and handled by the blocking path on the next iteration).
func (f *Fabric) tryReadBuffered(p *peer, br *connReader) (fabric.Message, bool, error) {
	hdr, ok := br.peek(frameHeaderSize)
	if !ok {
		return fabric.Message{}, false, nil
	}
	l := int(le32(hdr))
	if l < 1 || l > maxFrameSize {
		return fabric.Message{}, false, fmt.Errorf("wire: frame length %d out of range", l)
	}
	if hdr[4] != frameData {
		return fabric.Message{}, false, nil
	}
	// The whole frame on the wire is the header plus the body (l counts the
	// type byte, which lives inside the header).
	if !br.buffered(frameHeaderSize + l - 1) {
		return fabric.Message{}, false, nil
	}
	_, _, crc, err := readFrame(br)
	if err != nil {
		return fabric.Message{}, false, err
	}
	m, err := f.readDataBody(p, br, l-1, crc)
	if err != nil {
		return fabric.Message{}, false, err
	}
	return m, true, nil
}

// connReader is a buffered connection reader that can report whether a
// whole frame is already buffered, letting the read loop drain bursts
// without ever blocking mid-batch.
type connReader struct {
	*bufio.Reader
}

func newConnReader(c net.Conn, size int) *connReader {
	return &connReader{bufio.NewReaderSize(c, size)}
}

// peek returns the next n bytes without consuming them, but only if they
// are already buffered — it never reads from the connection.
func (r *connReader) peek(n int) ([]byte, bool) {
	if r.Buffered() < n {
		return nil, false
	}
	b, err := r.Peek(n)
	if err != nil {
		return nil, false
	}
	return b, true
}

// buffered reports whether at least n bytes are already buffered.
func (r *connReader) buffered(n int) bool { return r.Buffered() >= n }

func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// heartbeatLoop keeps every idle connection warm so silence means failure,
// not inactivity.
func (f *Fabric) heartbeatLoop() {
	t := time.NewTicker(f.opt.HeartbeatInterval)
	defer t.Stop()
	hb := controlFrame(frameHeartbeat)
	for {
		select {
		case <-f.done:
			return
		case now := <-t.C:
			for _, p := range f.peers {
				if p == nil {
					continue
				}
				if now.UnixNano()-p.lastWrite.Load() < int64(f.opt.HeartbeatInterval) {
					continue
				}
				p.wmu.Lock()
				var err error
				if !p.saidGoodbye {
					p.conn.SetWriteDeadline(now.Add(f.opt.HeartbeatTimeout))
					_, err = p.conn.Write(hb)
					p.lastWrite.Store(time.Now().UnixNano())
				}
				p.wmu.Unlock()
				if err != nil && !p.departed.Load() {
					if f.fenced.Load() && isTimeout(err) {
						// Fence open: a full send buffer behind a frozen
						// peer is not death; retry next tick.
						continue
					}
					f.failPeer(p.rank, fmt.Errorf("wire: rank %d: heartbeat to rank %d: %w (%v)", f.opt.Rank, p.rank, ErrPeerLost, err))
					return
				}
			}
		}
	}
}
