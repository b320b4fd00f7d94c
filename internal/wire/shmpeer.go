package wire

// The ring medium of one peer pair (medium, wire.go). Frames keep the exact
// socket encoding but move through the pair's mmap'd SPSC rings
// (shmring.go); the unix socket underneath carries only control traffic —
// doorbells, heartbeats and the goodbye. The writer loop and the reader
// loop are the socket tiers' own; what this file adds is how bytes cross
// the rings:
//
// Producer (write, from the writer loop), pushing under p.wmu:
//   - push the frame into tx; after publishing, if the consumer announced
//     it is parked (cwait set), clear the flag and write one doorbell
//     frame on the socket.
//   - on a full ring, spin on free(), then set pwait and wait (without
//     wmu) for the consumer's doorbell — relayed by our own read loop
//     through shm.space — and resume pushing.
//
// Consumer (next / more, via Read):
//   - spin briefly on an empty ring (the hot path: a request/response
//     peer answers well inside the spin window, so the doorbell is never
//     needed), then set cwait, re-check, and park in a blocking read on
//     the socket. Any frame that arrives — doorbell or heartbeat — wakes
//     it to re-check the ring; pwait relays are forwarded to the producer
//     side through shm.space.
//   - after freeing space, if the remote producer announced it is stalled
//     (pwait set), clear the flag and doorbell back.
//
// Specific to the ring: anything but a CRC-clean data frame out of the
// ring (bad length prefix, non-data type, CRC mismatch — a torn ring)
// wraps ErrCorruptFrame; peer death shows as EOF or heartbeat-timeout
// silence on the socket while parked; and the goodbye carries the
// producer's final tail, so the consumer drains the ring completely before
// it reports the departure.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/fabric"
)

// shmLink is the ring medium of one peer, riding on top of shmRegion.
type shmLink struct {
	f      *Fabric
	p      *peer
	region *shmRegion
	tx     *shmRing
	rx     *shmRing

	// space relays the peer consumer's "I freed space" doorbell from this
	// side's read loop to its producer (capacity 1, non-blocking sends).
	space chan struct{}

	// hdr is the writer's frame-header scratch; only writeLoop (through
	// write) touches it, so it needs no lock and costs no allocation.
	hdr [DataFrameOverhead]byte

	// corrupt arms the one-shot CRC fault injection (CorruptNextShmFrame).
	corrupt atomic.Bool

	// finalTail is the peer producer's tail at goodbye: the consumer keeps
	// draining until chead reaches it, then treats the departure as clean.
	finalTail atomic.Uint64
	finalSet  atomic.Bool
}

func newShmLink(f *Fabric, p *peer, reg *shmRegion) *shmLink {
	return &shmLink{
		f:      f,
		p:      p,
		region: reg,
		tx:     reg.tx,
		rx:     reg.rx,
		space:  make(chan struct{}, 1),
	}
}

// errShmDeparted is the ring reader's clean end-of-stream: the peer said
// goodbye and its ring has been drained to the announced final tail.
var errShmDeparted = errors.New("wire: shm peer departed")

// spinIters bounds the consumer's empty-ring spin before it parks on the
// doorbell socket: long enough that a ping-pong peer's reply lands while
// we still spin (the sub-microsecond path), short enough that an idle
// consumer parks within tens of microseconds. The tail of the spin yields
// the processor so a co-scheduled producer can run.
const (
	spinIters = 4096
	spinYield = 3072
)

// spinYieldFrom is the spin iteration at which the consumer starts
// yielding. On a single-P runtime a busy spin starves the very producer
// it is waiting for — the ring cannot fill until the consumer yields —
// so yield from the first iteration there.
var spinYieldFrom = func() int {
	if runtime.GOMAXPROCS(0) <= 1 {
		return 0
	}
	return spinYield
}()

// doorbellFrame is the pre-encoded empty doorbell control frame.
var doorbellFrame = controlFrame(frameDoorbell)

// doorbell writes one doorbell frame on the pair's socket; the caller holds
// p.wmu. Doorbells update lastWrite — they are real socket traffic and keep
// the heartbeat quiet period honest.
func (l *shmLink) doorbell() {
	p := l.p
	if p.saidGoodbye {
		return
	}
	now := time.Now()
	p.conn.SetWriteDeadline(now.Add(l.f.opt.HeartbeatTimeout))
	p.conn.Write(doorbellFrame)
	p.lastWrite.Store(now.UnixNano())
}

// wakeConsumer rings the doorbell if the peer's consumer announced it is
// parked (cwait); the caller holds p.wmu and has just published a push.
func (l *shmLink) wakeConsumer() {
	if l.tx.hdr.cwait.Swap(0) == 1 {
		l.doorbell()
	}
}

// wakeProducer rings the doorbell if the peer's producer announced it is
// stalled on a full ring (pwait); the caller has just freed space and does
// not hold p.wmu. The Load screens the common case so the hot path pays one
// read of an already-local cache line.
func (l *shmLink) wakeProducer() {
	if h := l.rx.hdr; h.pwait.Load() != 0 && h.pwait.Swap(0) == 1 {
		l.p.wmu.Lock()
		l.doorbell()
		l.p.wmu.Unlock()
	}
}

// stamp encodes a data frame's framing into hdr, applying the armed
// corruption injection if any: the CRC is flipped after stamping, so the
// receiver sees a torn ring.
func (l *shmLink) stamp(hdr []byte, m *fabric.Message, payload []byte) {
	encodeDataHeader(hdr, m.Src, m.Dest, m.Run, m.Seq, m.Attempt, payload)
	if l.corrupt.Load() && l.corrupt.Swap(false) {
		hdr[5] ^= 0x01
	}
}

// write pushes the batch into the tx ring frame by frame: a bounded number
// of memcpys per frame and no syscall.
func (l *shmLink) write(batch []fabric.Message, wires [][]byte) (int, error) {
	for i, w := range wires {
		l.stamp(l.hdr[:], &batch[i], w)
		if err := l.pushFrame(l.hdr[:], w); err != nil {
			return i, err
		}
	}
	return len(batch), nil
}

// pushFrame pushes one encoded frame (header + payload) into the tx ring,
// taking p.wmu per attempt and releasing it while waiting for space on a
// full ring — parked producers must never block heartbeats or doorbells.
// Returns an error when the fabric is cancelled or the consumer fails to
// free space within the heartbeat timeout.
func (l *shmLink) pushFrame(hdr, payload []byte) error {
	p := l.p
	segs := [2][]byte{hdr, payload}
	i := 0
	var stallStart time.Time
	for {
		p.wmu.Lock()
		wrote := false
		// When the whole remaining frame fits, write it with one tail
		// publish so the consumer never observes a torn prefix and stays on
		// its in-place decode fast path. Otherwise push what fits: partial
		// progress streams frames larger than the ring.
		if uint64(len(segs[0])+len(segs[1])) <= l.tx.free() {
			l.tx.pushAll(segs[0], segs[1])
			segs[0], segs[1] = nil, nil
			i = 2
			wrote = true
		}
		for i < 2 {
			if len(segs[i]) == 0 {
				i++
				continue
			}
			n := l.tx.push(segs[i])
			if n == 0 {
				break
			}
			wrote = true
			segs[i] = segs[i][n:]
		}
		if wrote {
			l.wakeConsumer()
		}
		p.wmu.Unlock()
		if i == 2 {
			return nil
		}
		// Ring full: announce the stall, re-check (the consumer may have
		// freed space between our push and the flag), then wait for its
		// doorbell relayed through l.space. Shutdown closes f.done before
		// the drain, so a graceful drain must keep waiting; only an actual
		// Cancel/Kill (f.cancelled) or a consumer that frees nothing for a
		// whole heartbeat timeout aborts the write.
		if wrote {
			stallStart = time.Time{}
		}
		if stallStart.IsZero() {
			stallStart = time.Now()
		}
		// The consumer is in shared memory too: spin on free() first, so a
		// draining consumer unblocks us in nanoseconds, without waiting for
		// its doorbell to cross the socket and our read loop to relay it.
		spun := false
		for spin := 0; spin < spinIters && !spun; spin++ {
			if spin >= spinYieldFrom {
				runtime.Gosched()
			}
			spun = l.tx.free() > 0
			if spin&255 == 0 && l.f.cancelled.Load() {
				return errors.New("wire: cancelled")
			}
		}
		if spun {
			continue
		}
		l.tx.hdr.pwait.Store(1)
		if l.tx.free() > 0 {
			continue
		}
		select {
		case <-l.space:
		case <-time.After(10 * time.Millisecond):
			if l.f.cancelled.Load() {
				return errors.New("wire: cancelled")
			}
			if time.Since(stallStart) > l.f.opt.HeartbeatTimeout {
				return fmt.Errorf("ring full for %v", l.f.opt.HeartbeatTimeout)
			}
		}
	}
}

// goodbye carries the tx ring's final tail as an 8-byte body, so the
// consumer knows exactly how much to drain.
func (l *shmLink) goodbye() []byte {
	var b [frameHeaderSize + 8]byte
	binary.LittleEndian.PutUint64(b[frameHeaderSize:], l.tx.ptail)
	return finishFrame(b[:], frameGoodbye)
}

// Read adapts the rx ring to io.Reader with the spin-then-park wait
// underneath, so readFrame/readDataBody decode a frame that straddles the
// ring edge through the exact code path the socket tiers use — same CRC
// verification, same arena buffers, same run-id demux fields.
func (l *shmLink) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	for {
		if n := l.rx.pop(b); n > 0 {
			l.wakeProducer()
			return n, nil
		}
		if err := l.wait(); err != nil {
			return 0, err
		}
	}
}

// wait blocks until the rx ring is readable: spin, then park on the
// doorbell socket. Returns errShmDeparted once the peer's goodbye has
// been received and the ring drained to its final tail.
func (l *shmLink) wait() error {
	for {
		for spin := 0; spin < spinIters; spin++ {
			if l.rx.readable() > 0 {
				return nil
			}
			if spin&255 == 0 {
				if l.finalSet.Load() && l.rx.chead == l.finalTail.Load() {
					return errShmDeparted
				}
				if l.f.cancelled.Load() {
					return errors.New("wire: cancelled")
				}
			}
			if spin >= spinYieldFrom {
				runtime.Gosched()
			}
		}
		// Park: announce, re-check (the producer may have published between
		// the last poll and the flag), then block on the socket.
		l.rx.hdr.cwait.Store(1)
		if l.rx.readable() > 0 {
			l.rx.hdr.cwait.Store(0)
			return nil
		}
		if err := l.parkOnSocket(); err != nil {
			return err
		}
	}
}

// parkOnSocket blocks in a read on the pair's socket until any control
// frame arrives, handling it: doorbells and heartbeats mean "re-check the
// rings" (and may be relaying a pwait release for our producer side);
// goodbye records the peer's final tail. The read loop is the only reader
// of the socket once the data phase starts.
func (l *shmLink) parkOnSocket() error {
	c := l.p.conn
	c.SetReadDeadline(time.Now().Add(l.f.opt.HeartbeatTimeout))
	// Not the peer's header scratch: a park can interrupt a frame or data
	// header being read into it through Read.
	typ, n, crc, err := readFrame(c)
	if err != nil {
		return err
	}
	switch typ {
	case frameDoorbell, frameHeartbeat:
		if n != 0 {
			return fmt.Errorf("wire: control frame with %d-byte body", n)
		}
		if err := verifyBody(typ, nil, crc); err != nil {
			return err
		}
		// The doorbell does not say which direction it serves: poke our
		// producer unconditionally (spurious pokes are one channel op) and
		// let the caller re-check the rx ring.
		select {
		case l.space <- struct{}{}:
		default:
		}
		return nil
	case frameGoodbye:
		if n != 8 {
			return fmt.Errorf("wire: shm goodbye with %d-byte body", n)
		}
		var b [8]byte
		if _, err := io.ReadFull(c, b[:]); err != nil {
			return err
		}
		if err := verifyBody(typ, b[:], crc); err != nil {
			return err
		}
		l.finalTail.Store(binary.LittleEndian.Uint64(b[:]))
		l.finalSet.Store(true)
		return nil
	default:
		return fmt.Errorf("wire: unexpected frame type %d on shm control socket", typ)
	}
}

// next reads the next frame out of the ring, reporting the drained
// departure as frameGoodbye. Control frames never ride the ring: their
// traffic is handled inside the park.
func (l *shmLink) next() (fabric.Message, byte, error) {
	m, err := l.readRingFrame()
	if errors.Is(err, errShmDeparted) {
		return m, frameGoodbye, nil
	}
	return m, frameData, err
}

// more decodes one more frame only if it is already whole in the ring.
func (l *shmLink) more() (fabric.Message, bool, error) {
	if !l.frameBuffered() {
		return fabric.Message{}, false, nil
	}
	m, err := l.readRingFrame()
	return m, err == nil, err
}

// frameBuffered reports whether a complete, well-formed frame is fully
// readable from the rx ring right now — the greedy-drain guard, so later
// frames of a burst are decoded without ever blocking. A malformed length
// returns false and lets the blocking path surface the corruption.
func (l *shmLink) frameBuffered() bool {
	var hdr [frameHeaderSize]byte
	if l.rx.peek(hdr[:]) < frameHeaderSize {
		return false
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n < 1 || n > maxFrameSize {
		return false
	}
	return l.rx.readable() >= uint64(frameHeaderSize+n-1)
}

// readRingFrame decodes the next frame out of the ring, blocking in wait.
// Everything except a CRC-clean data frame is a torn ring and wraps
// ErrCorruptFrame.
func (l *shmLink) readRingFrame() (fabric.Message, error) {
	// Fast path: the whole frame sits contiguous at the read cursor — the
	// overwhelmingly common case, since a frame straddles the ring edge at
	// most once per ring-size of traffic. Decode it in place. An empty ring
	// waits here first, so latency-bound traffic (ring drained between
	// messages) lands on this path too, not just bursts.
	for {
		v := l.rx.view()
		if len(v) >= frameHeaderSize {
			n := int(binary.LittleEndian.Uint32(v[0:4]))
			if n < 1 || n > maxFrameSize {
				return fabric.Message{}, fmt.Errorf("%w: torn ring: %v: %d", ErrCorruptFrame, errFrameLength, n)
			}
			if total := frameHeaderSize + n - 1; len(v) >= total {
				if v[4] != frameData {
					return fabric.Message{}, fmt.Errorf("%w: torn ring: frame type %d", ErrCorruptFrame, v[4])
				}
				crc := binary.LittleEndian.Uint32(v[5:9])
				m, err := l.f.decodeDataBytes(l.p, v[frameHeaderSize:total], crc)
				if err != nil {
					return fabric.Message{}, err
				}
				l.rx.advance(total)
				l.wakeProducer()
				return m, nil
			}
			break // frame straddles the ring edge or is mid-push: stream it
		}
		if len(v) > 0 {
			break // header straddles the ring edge: stream it
		}
		if err := l.wait(); err != nil {
			return fabric.Message{}, err
		}
	}
	typ, n, crc, err := l.p.readFrame(l)
	if err != nil {
		if errors.Is(err, errFrameLength) {
			return fabric.Message{}, fmt.Errorf("%w: torn ring: %v", ErrCorruptFrame, err)
		}
		return fabric.Message{}, err
	}
	if typ != frameData {
		return fabric.Message{}, fmt.Errorf("%w: torn ring: frame type %d", ErrCorruptFrame, typ)
	}
	return l.f.readDataBody(l.p, l, n, crc)
}
