package wire

// Shared-memory ring regions: the TierShm data path. Each co-located rank
// pair maps one file holding a pair of lock-free SPSC byte rings (one per
// direction). The dialer of the pair's unix socket creates the file,
// names it in its pair hello, and unlinks it once the acceptor's accept
// has answered — the mappings outlive the name, so nothing is left on disk
// even after a kill -9.
//
// The ring is a byte pipe, not a slot queue: frames are written with the
// exact encoding the socket tiers use (length | type | crc | data header |
// payload) and decoded by the same readFrame/readDataBody code, so CRCs,
// run-id demux and corrupt-frame semantics are byte-identical across
// tiers. A frame larger than the ring simply streams through it in
// chunks.
//
// Layout of the region file (offsets in bytes):
//
//	0     magic
//	8     generation (the fabric epoch — stale files never match)
//	16    ring size per direction
//	256   ring A header (dialer tx)
//	512   ring B header (acceptor tx)
//	4096  ring A data
//	4096+ringSize  ring B data
//
// Each ringHdr field sits on its own cache line: head and tail are the
// SPSC cursors (free-running, never wrapped — the data offset is
// cursor & (size-1)); cwait is set by a consumer about to park so the
// producer knows to ring the socket doorbell; pwait is set by a producer
// blocked on a full ring so the consumer knows to doorbell back when it
// frees space.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	shmMagic uint64 = 0x314752_4D53_4642 // "BFSMRG1", little-endian

	shmMagicOff = 0
	shmGenOff   = 8
	shmSizeOff  = 16
	shmHdrAOff  = 256
	shmHdrBOff  = 512
	shmDataOff  = 4096

	// defaultShmRingBytes is the per-direction ring capacity; minShmRingBytes
	// keeps the wrap arithmetic sane and lets tests force heavy backpressure.
	defaultShmRingBytes = 1 << 20
	minShmRingBytes     = 4096
)

// ringHdr is the shared SPSC control block, one per direction. Cursors are
// free-running byte counts published with sequentially consistent atomics;
// the data they cover is written before tail is advanced and read before
// head is advanced, so each side only ever reads bytes the other has
// finished with.
type ringHdr struct {
	head  atomic.Uint64 // consumer cursor: bytes consumed
	_     [56]byte
	tail  atomic.Uint64 // producer cursor: bytes published
	_     [56]byte
	cwait atomic.Uint32 // consumer parked (or parking); producer must doorbell
	_     [60]byte
	pwait atomic.Uint32 // producer blocked on a full ring; consumer must doorbell
	_     [60]byte
}

// shmRing is one direction of the pair. Exactly one process produces and
// one consumes; the local cursor mirrors (ptail for the producer side,
// chead for the consumer side) avoid re-reading the shared line for the
// side we own.
type shmRing struct {
	hdr  *ringHdr
	data []byte
	size uint64 // len(data), power of two

	ptail uint64 // producer-local copy of hdr.tail (guarded by peer.wmu)
	chead uint64 // consumer-local copy of hdr.head (single reader goroutine)
}

// free reports the bytes the producer can write without overtaking the
// consumer.
func (r *shmRing) free() uint64 {
	return r.size - (r.ptail - r.hdr.head.Load())
}

// push copies as much of b as fits, publishes the new tail, and reports
// how many bytes were written. A zero return means the ring is full.
func (r *shmRing) push(b []byte) int {
	free := r.free()
	if free == 0 {
		return 0
	}
	n := uint64(len(b))
	if n > free {
		n = free
	}
	pos := r.ptail & (r.size - 1)
	c := copy(r.data[pos:], b[:n])
	if uint64(c) < n {
		copy(r.data, b[c:n])
	}
	r.ptail += n
	r.hdr.tail.Store(r.ptail)
	return int(n)
}

// pushAll copies every segment into the ring and publishes the tail ONCE,
// after the last byte: a consumer that observes the new tail always sees
// a complete frame, keeping it on the in-place decode fast path. The
// caller must have checked that the combined length fits free().
func (r *shmRing) pushAll(segs ...[]byte) {
	for _, s := range segs {
		pos := r.ptail & (r.size - 1)
		c := copy(r.data[pos:], s)
		if c < len(s) {
			copy(r.data, s[c:])
		}
		r.ptail += uint64(len(s))
	}
	r.hdr.tail.Store(r.ptail)
}

// readable reports the bytes the consumer can pop right now.
func (r *shmRing) readable() uint64 {
	return r.hdr.tail.Load() - r.chead
}

// pop copies up to len(b) readable bytes out and publishes the new head.
// A zero return means the ring is empty.
func (r *shmRing) pop(b []byte) int {
	avail := r.readable()
	if avail == 0 {
		return 0
	}
	n := uint64(len(b))
	if n > avail {
		n = avail
	}
	pos := r.chead & (r.size - 1)
	c := copy(b[:n], r.data[pos:])
	if uint64(c) < n {
		copy(b[c:n], r.data)
	}
	r.chead += n
	r.hdr.head.Store(r.chead)
	return int(n)
}

// view returns the longest contiguous run of readable bytes at the read
// cursor WITHOUT consuming them. A frame that fits entirely in the
// returned slice can be decoded in place — one CRC pass over the mapped
// bytes, one copy into the arena — skipping the io.Reader assembly path.
func (r *shmRing) view() []byte {
	n := r.hdr.tail.Load() - r.chead
	if n == 0 {
		return nil
	}
	pos := r.chead & (r.size - 1)
	if c := r.size - pos; n > c {
		n = c
	}
	return r.data[pos : pos+n]
}

// advance consumes n bytes previously observed through view and publishes
// the new head.
func (r *shmRing) advance(n int) {
	r.chead += uint64(n)
	r.hdr.head.Store(r.chead)
}

// peek copies up to len(b) readable bytes starting at the read cursor
// WITHOUT consuming them, reporting how many were available. Used to
// check whether a complete frame is buffered before a non-blocking drain.
func (r *shmRing) peek(b []byte) int {
	avail := r.readable()
	if avail == 0 {
		return 0
	}
	n := uint64(len(b))
	if n > avail {
		n = avail
	}
	pos := r.chead & (r.size - 1)
	c := copy(b[:n], r.data[pos:])
	if uint64(c) < n {
		copy(b[c:n], r.data)
	}
	return int(n)
}

// shmRegion is one mapped ring-pair file. tx is the ring this process
// produces into, rx the one it consumes; the dialer takes ring A as tx,
// the acceptor ring B, so the two processes agree without coordination.
type shmRegion struct {
	mm   []byte
	path string
	tx   *shmRing
	rx   *shmRing
	once sync.Once
}

// regionSize is the file size for a given per-direction ring capacity.
func regionSize(ringBytes int) int {
	return shmDataOff + 2*ringBytes
}

func ringAt(mm []byte, hdrOff, dataOff, size int) *shmRing {
	return &shmRing{
		hdr:  (*ringHdr)(unsafe.Pointer(&mm[hdrOff])),
		data: mm[dataOff : dataOff+size : dataOff+size],
		size: uint64(size),
	}
}

// createShmRegion makes, sizes and maps a fresh ring-pair file in dir,
// stamped with the fabric generation. The caller owns ring A (tx).
func createShmRegion(dir string, gen uint64, ringBytes int) (*shmRegion, error) {
	f, err := os.CreateTemp(dir, "ring-*.shm")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	size := regionSize(ringBytes)
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	mm, err := mmapFile(f, size)
	f.Close()
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	binary.LittleEndian.PutUint64(mm[shmMagicOff:], shmMagic)
	binary.LittleEndian.PutUint64(mm[shmGenOff:], gen)
	binary.LittleEndian.PutUint64(mm[shmSizeOff:], uint64(ringBytes))
	return &shmRegion{
		mm:   mm,
		path: path,
		tx:   ringAt(mm, shmHdrAOff, shmDataOff, ringBytes),
		rx:   ringAt(mm, shmHdrBOff, shmDataOff+ringBytes, ringBytes),
	}, nil
}

// openShmRegion maps a region file created by a peer and validates its
// header against our generation. The caller owns ring B (tx).
func openShmRegion(path string, gen uint64) (*shmRegion, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := int(st.Size())
	if size < regionSize(minShmRingBytes) {
		f.Close()
		return nil, fmt.Errorf("shm region %s: %d bytes, too small", path, size)
	}
	mm, err := mmapFile(f, size)
	f.Close()
	if err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint64(mm[shmMagicOff:]); m != shmMagic {
		munmapFile(mm)
		return nil, fmt.Errorf("shm region %s: bad magic %#x", path, m)
	}
	if g := binary.LittleEndian.Uint64(mm[shmGenOff:]); g != gen {
		munmapFile(mm)
		return nil, fmt.Errorf("shm region %s: generation %d, want %d", path, g, gen)
	}
	ringBytes := int(binary.LittleEndian.Uint64(mm[shmSizeOff:]))
	if ringBytes < minShmRingBytes || ringBytes&(ringBytes-1) != 0 || regionSize(ringBytes) != size {
		munmapFile(mm)
		return nil, fmt.Errorf("shm region %s: ring size %d inconsistent with %d-byte file", path, ringBytes, size)
	}
	return &shmRegion{
		mm:   mm,
		path: path,
		tx:   ringAt(mm, shmHdrBOff, shmDataOff+ringBytes, ringBytes),
		rx:   ringAt(mm, shmHdrAOff, shmDataOff, ringBytes),
	}, nil
}

// close unmaps the region. Safe to call more than once; must not be
// called while any goroutine can still touch the rings.
func (s *shmRegion) close() {
	s.once.Do(func() {
		munmapFile(s.mm)
		s.mm = nil
	})
}

func closeRegions(regs []*shmRegion) {
	for _, r := range regs {
		if r != nil {
			r.close()
		}
	}
}

// shmDataDir picks the directory ring files are created in: a private
// tempdir under /dev/shm when available (a real tmpfs on linux), the OS
// temp dir otherwise. Returns "" when this build cannot mmap.
func shmDataDir() (string, error) {
	if !shmSupported {
		return "", fmt.Errorf("shared memory transport not supported on this platform")
	}
	base := ""
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		base = "/dev/shm"
	}
	return os.MkdirTemp(base, "bfshm-*")
}
