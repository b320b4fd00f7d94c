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
// Data path: frames are length-prefixed (frame.go). Every send, one
// message or many, enqueues on the destination peer's unbounded outbox (the
// same pooled ring-buffer mailbox the in-memory fabric uses), drained by
// one writer goroutine; one reader goroutine decodes payloads into arena
// buffers (core.GrabBuffer) and delivers every frame of a burst under one
// mailbox lock. The writer loop and the reader loop are written once, over
// a per-peer medium that only moves the bytes: the socket itself, where a
// whole batch reaches the kernel as one vectored write (writev) of header
// and payload slices, or the pair's shared-memory rings (shmpeer.go). One
// outbox + one writer + one reader per pair preserves the in-memory
// fabric's pairwise FIFO delivery order.
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
	// Round up to a power of two (the ring masks cursors), at least
	// minShmRingBytes.
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

// peer is one remote rank: its duplex connection, outbound queue, writer
// state and the medium its data frames move through.
type peer struct {
	rank   int
	conn   net.Conn
	outbox *fabric.Mailbox
	md     medium

	// wake is the writer's park signal (capacity 1). Senders poke it after
	// every enqueue; the writer drains the outbox with TryGetBatch and
	// blocks here when it runs dry.
	wake chan struct{}

	wmu         sync.Mutex // serializes data, heartbeat, doorbell and goodbye writes
	saidGoodbye bool       // guarded by wmu; no writes after goodbye
	lastWrite   atomic.Int64

	departed atomic.Bool // peer sent goodbye; EOF is now clean

	// rhdr is the scratch the peer's reader goroutine, and only it, reads
	// frame and data headers into, so a received frame allocates none. A
	// data header is the larger of the two.
	rhdr [dataHeaderSize]byte
}

// readFrame is readFrame into the peer's header scratch: only the peer's
// reader goroutine may call it, and not while a header is being read into
// the scratch (the shm doorbell park reads with readFrame).
func (p *peer) readFrame(r io.Reader) (typ byte, n int, crc uint32, err error) {
	return readFrameLimit(r, p.rhdr[:], maxFrameSize)
}

// ring returns the peer's shared-memory ring link, or nil when its data
// frames ride the socket.
func (p *peer) ring() *shmLink {
	l, _ := p.md.(*shmLink)
	return l
}

// medium moves one peer's data frames: over the socket itself (sockMedium),
// or through the pair's shared-memory rings while the socket carries only
// doorbells, heartbeats and the goodbye (shmLink). writeLoop and readLoop
// are written once over it; a medium supplies only the steps that differ
// between the two.
type medium interface {
	// write delivers a batch whose payloads are already serialized (wires[i]
	// is batch[i]'s) and reports how many frames reached the peer before an
	// error.
	write(batch []fabric.Message, wires [][]byte) (int, error)
	// goodbye returns the goodbye frame; p.wmu is held.
	goodbye() []byte
	// next reads the next frame, blocking: a data frame, a heartbeat, or
	// frameGoodbye once the peer has departed and all it sent is read.
	next() (fabric.Message, byte, error)
	// more decodes one more data frame only if it is already whole; it
	// never blocks.
	more() (fabric.Message, bool, error)
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
	fenced    atomic.Bool   // epoch fence open: liveness timeouts suspended
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
		p.lastWrite.Store(time.Now().UnixNano())
		if regs != nil && regs[r] != nil {
			p.md = newShmLink(f, p, regs[r])
			anyShm = true
		} else {
			p.md = newSockMedium(f, p)
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
		go f.writeLoop(p)
		go f.readLoop(p)
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
				if p != nil && p.ring() != nil {
					p.ring().region.close()
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
// tier selection, which the tier tests check.
func (f *Fabric) PeerNetwork(rank int) string {
	if rank < 0 || rank >= f.opt.Ranks || f.peers[rank] == nil {
		return ""
	}
	if f.peers[rank].ring() != nil {
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
	if peerRank < 0 || peerRank >= f.opt.Ranks || f.peers[peerRank] == nil || f.peers[peerRank].ring() == nil {
		return false
	}
	f.peers[peerRank].ring().corrupt.Store(true)
	return true
}

// Send implements fabric.Transport: SendN of one message.
func (f *Fabric) Send(m fabric.Message) error {
	return f.SendN([]fabric.Message{m})
}

// vectorMin is the smallest payload handed to the kernel as its own iovec.
// Measured on loopback: per-iovec kernel cost beats the memcpy only from the
// mid-KiB range up (~1.3x at 16 KiB, ~2x at 64 KiB), while for small frames
// a coalesced copy wins by >2x — so a batch is gathered as staging-buffer
// runs of headers + small payloads, interleaved with large payloads
// referenced zero-copy.
const vectorMin = 16 << 10

// SendN implements fabric.Transport. Messages to the local rank are
// in-memory hand-offs; runs of consecutive messages to the same remote rank
// are enqueued on its outbox under one lock acquisition and flushed by its
// writer as one coalesced write.
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

func (f *Fabric) mustBeLocal(rank int) {
	if rank != f.opt.Rank {
		panic(fmt.Sprintf("wire: receive on rank %d, but this fabric serves rank %d", rank, f.opt.Rank))
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
// lost peer within the heartbeat timeout. It is Cancel under the name the
// fault injectors look up (interface{ Kill() }).
func (f *Fabric) Kill() { f.Cancel() }

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

// maxBatch bounds the frames the writer drains, and the reader delivers,
// in one go.
const maxBatch = 64

// writeLoop drains one peer's outbox. It serializes the whole drained
// batch first — a payload that cannot be serialized fails the fabric before
// any frame of the batch is written — then hands it to the peer's medium.
// When the outbox closes (Shutdown) the loop flushes what remains and says
// goodbye; when it is cancelled the loop exits immediately (the connections
// are already being torn down). Between drains the writer parks on p.wake.
// Every exit path drops the payload references of the whole batch.
func (f *Fabric) writeLoop(p *peer) {
	defer f.writers.Done()
	batch := make([]fabric.Message, maxBatch)
	wires := make([][]byte, maxBatch)
	for {
		n, done := p.outbox.TryGetBatch(batch)
		if n == 0 {
			if done {
				if !f.cancelled.Load() {
					p.wmu.Lock()
					if !p.saidGoodbye {
						p.saidGoodbye = true
						p.conn.SetWriteDeadline(time.Now().Add(f.opt.HeartbeatTimeout))
						p.conn.Write(p.md.goodbye())
					}
					p.wmu.Unlock()
				}
				return
			}
			// Park. Senders poke after every enqueue (the channel holds one
			// token), so no wakeup is lost.
			<-p.wake
			continue
		}
		var payloadBytes uint64
		var err error
		for i := 0; i < n && err == nil; i++ {
			if wires[i], err = batch[i].Payload.Wire(); err != nil {
				f.fail(fmt.Errorf("wire: rank %d -> %d: task %d payload: %w",
					f.opt.Rank, p.rank, batch[i].Src, err))
			}
			payloadBytes += uint64(len(wires[i]))
		}
		if err == nil {
			var sent int
			if sent, err = p.md.write(batch[:n], wires[:n]); err != nil {
				// The failed frames plus whatever is still queued behind them
				// will never reach the peer; surface the count so partial
				// delivery is observable instead of silent.
				f.failPeer(p.rank, fmt.Errorf("wire: rank %d: write to rank %d: %d frame(s) undelivered: %w (%v)",
					f.opt.Rank, p.rank, n-sent+p.outbox.Len(), ErrPeerLost, err))
			}
		}
		releaseAll(batch[:n])
		clearMessages(batch[:n])
		if err != nil {
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
// deliveries with arena-backed payloads, heartbeats are liveness only,
// goodbye marks the peer cleanly departed. Any other end of stream is a
// lost peer.
func (f *Fabric) readLoop(p *peer) {
	defer f.readers.Done()
	batch := make([]fabric.Message, 0, maxBatch)
	for {
		m, typ, err := p.md.next()
		if err == nil {
			switch typ {
			case frameGoodbye:
				p.departed.Store(true)
				return
			case frameHeartbeat:
				continue
			}
			batch = append(batch[:0], m)
			// Greedy drain: decode every data frame already buffered —
			// without blocking — so a burst is delivered under one mailbox
			// lock. A frame that fails decode (CRC mismatch, bad length)
			// makes the stream untrustworthy from there on: the intact
			// prefix is delivered, then the peer is declared lost below.
			for len(batch) < maxBatch {
				var ok bool
				if m, ok, err = p.md.more(); !ok {
					break
				}
				batch = append(batch, m)
			}
			perr := f.local.PutN(batch)
			clearMessages(batch)
			if perr != nil {
				return // local mailbox closed or cancelled: the run is over
			}
			if err == nil {
				continue
			}
		}
		if f.cancelled.Load() || p.departed.Load() {
			return
		}
		if f.fenced.Load() && isTimeout(err) {
			// An epoch fence is open: the peer may be stalled flushing
			// journals for a membership change, so a quiet connection is
			// not evidence of death. Keep listening; closures and corrupt
			// frames still fail below.
			continue
		}
		// Both sentinels are wrapped: recovery classifies this as peer
		// loss, while errors.Is(err, ErrCorruptFrame) still identifies
		// an integrity failure.
		f.failPeer(p.rank, fmt.Errorf("wire: rank %d: peer %d: %w (%w)", f.opt.Rank, p.rank, ErrPeerLost, err))
		return
	}
}

// readOne reads the next frame, blocking, verifying its CRC32C. Data
// frames return the decoded message; control frames return their type with
// a zero message.
func (f *Fabric) readOne(p *peer, br io.Reader) (fabric.Message, byte, error) {
	typ, n, crc, err := p.readFrame(br)
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

// readDataBody decodes an n-byte data frame body streamed from br.
func (f *Fabric) readDataBody(p *peer, br io.Reader, n int, crc uint32) (fabric.Message, error) {
	if n < dataHeaderSize {
		return fabric.Message{}, fmt.Errorf("wire: data frame of %d bytes", n)
	}
	hdr := p.rhdr[:dataHeaderSize]
	if _, err := io.ReadFull(br, hdr); err != nil {
		return fabric.Message{}, err
	}
	payload := core.GrabBuffer(n - dataHeaderSize)
	if _, err := io.ReadFull(br, payload); err != nil {
		core.ReleaseBuffer(payload)
		return fabric.Message{}, err
	}
	got := crc32.Update(crc32.Update(0, castagnoli, hdr), castagnoli, payload)
	m, err := f.dataMessage(p, hdr, payload, got, crc)
	if err != nil {
		core.ReleaseBuffer(payload)
	}
	return m, err
}

// decodeDataBytes is readDataBody over an in-memory body — the shm ring's
// in-place fast path. It verifies the CRC before taking an arena buffer.
func (f *Fabric) decodeDataBytes(p *peer, body []byte, crc uint32) (fabric.Message, error) {
	if len(body) < dataHeaderSize {
		return fabric.Message{}, fmt.Errorf("wire: data frame of %d bytes", len(body))
	}
	got := crc32.Checksum(body, castagnoli)
	var payload []byte
	if got == crc {
		payload = core.GrabBuffer(len(body) - dataHeaderSize)
		copy(payload, body[dataHeaderSize:])
	}
	return f.dataMessage(p, body, payload, got, crc)
}

// dataMessage is the one data header → message construction under both
// decoders: got is the CRC32C computed over header and payload, crc the
// frame's, and payload the arena buffer the message owns.
func (f *Fabric) dataMessage(p *peer, hdr, payload []byte, got, crc uint32) (fabric.Message, error) {
	src, dest := core.TaskId(le64(hdr[0:])), core.TaskId(le64(hdr[8:]))
	if got != crc {
		return fabric.Message{}, fmt.Errorf("%w: data frame src %d dest %d, crc %08x != header %08x",
			ErrCorruptFrame, src, dest, got, crc)
	}
	return fabric.Message{
		From: p.rank, To: f.opt.Rank, Src: src, Dest: dest,
		Run: le64(hdr[16:]), Seq: le64(hdr[24:]), Attempt: le32(hdr[32:]),
		Payload: core.Buffer(payload),
	}, nil
}

// sockMedium moves a peer's data frames over its socket.
type sockMedium struct {
	f *Fabric
	p *peer

	// vectored marks a raw TCP/Unix connection whose batches go to the
	// kernel as one writev of header and payload slices. Wrapped
	// connections (fault injectors) instead get the coalesced single-Write
	// form, preserving their one-Write-per-batch counting contract.
	vectored bool
	vecs     net.Buffers // the writer's gather list

	br    *bufio.Reader // the reader's buffered view of the socket
	armed time.Time     // when the reader last set the read deadline
}

func newSockMedium(f *Fabric, p *peer) *sockMedium {
	s := &sockMedium{
		f: f, p: p,
		vecs: make(net.Buffers, 0, 2*maxBatch),
		br:   bufio.NewReaderSize(p.conn, 64<<10),
	}
	switch p.conn.(type) {
	case *net.TCPConn, *net.UnixConn:
		s.vectored = true
	}
	return s
}

// write hands a whole batch to the kernel as one syscall: headers and small
// payloads are gathered into a contiguous staging run, payloads of
// vectorMin and up are referenced zero-copy as their own iovecs, and the
// resulting vector goes out as one writev (or a plain write when
// everything staged). On a wrapped, non-vectored connection everything is
// staged so the batch remains exactly one Write call.
func (s *sockMedium) write(batch []fabric.Message, wires [][]byte) (int, error) {
	p := s.p
	stageTotal := 0
	for _, w := range wires {
		stageTotal += DataFrameOverhead
		if len(w) < vectorMin || !s.vectored {
			stageTotal += len(w)
		}
	}
	s.vecs = s.vecs[:0]
	stage := core.GrabBuffer(stageTotal)[:0]
	runStart := 0
	for i, w := range wires {
		off := len(stage)
		stage = stage[:off+DataFrameOverhead]
		encodeDataHeader(stage[off:], batch[i].Src, batch[i].Dest, batch[i].Run, batch[i].Seq, batch[i].Attempt, w)
		if len(w) < vectorMin || !s.vectored {
			stage = append(stage, w...)
			continue
		}
		// Close the current staging run and reference the payload
		// directly.
		if len(stage) > runStart {
			s.vecs = append(s.vecs, stage[runStart:len(stage):len(stage)])
		}
		s.vecs = append(s.vecs, w)
		runStart = len(stage)
	}
	if len(stage) > runStart {
		s.vecs = append(s.vecs, stage[runStart:])
	}
	// One clock read serves the write deadline and the heartbeat
	// bookkeeping for the whole batch.
	now := time.Now()
	p.wmu.Lock()
	p.conn.SetWriteDeadline(now.Add(s.f.opt.HeartbeatTimeout))
	var err error
	if len(s.vecs) == 1 {
		_, err = p.conn.Write(s.vecs[0])
	} else {
		bufs := s.vecs // WriteTo consumes its receiver; keep vecs reusable
		_, err = bufs.WriteTo(p.conn)
	}
	p.lastWrite.Store(now.UnixNano())
	p.wmu.Unlock()
	clear(s.vecs)
	core.ReleaseBuffer(stage)
	if err != nil {
		return 0, err
	}
	return len(batch), nil
}

// goodbye is an empty-body goodbye frame: everything sent before it is
// already on the socket.
func (s *sockMedium) goodbye() []byte { return controlFrame(frameGoodbye) }

// next reads the next frame off the socket. The read deadline is re-armed
// lazily: a fresh deadline is only needed when an armed one has aged
// enough to bite early, so a busy connection pays one timer modification
// per half heartbeat interval instead of one per frame. Worst case the
// peer is declared lost half an interval late, well inside the
// failure-detection contract.
func (s *sockMedium) next() (fabric.Message, byte, error) {
	if now := time.Now(); now.Sub(s.armed) > s.f.opt.HeartbeatInterval/2 {
		s.armed = now
		s.p.conn.SetReadDeadline(now.Add(s.f.opt.HeartbeatTimeout))
	}
	m, typ, err := s.f.readOne(s.p, s.br)
	if err != nil {
		s.armed = time.Time{} // a fenced timeout retries on a fresh deadline
	}
	return m, typ, err
}

// more decodes one more data frame only if it is already fully buffered.
// Control frames end the greedy drain (they are rare and handled by next).
func (s *sockMedium) more() (fabric.Message, bool, error) {
	if s.br.Buffered() < frameHeaderSize {
		return fabric.Message{}, false, nil
	}
	hdr, _ := s.br.Peek(frameHeaderSize) // already buffered: no read, no error
	// The whole frame on the wire is the header plus the body (the length
	// counts the type byte, which lives inside the header). A length out of
	// range is left for next to report.
	l := int(le32(hdr))
	if hdr[4] != frameData || l < 1 || l > maxFrameSize || s.br.Buffered() < frameHeaderSize+l-1 {
		return fabric.Message{}, false, nil
	}
	m, _, err := s.f.readOne(s.p, s.br)
	return m, err == nil, err
}

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
