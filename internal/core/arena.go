package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Wire-buffer arena: a set of size-classed sync.Pool free lists backing the
// message fast path. Serialized wire forms, region staging buffers and
// fan-out copies churn at a high rate but have controller-bounded lifetimes,
// so recycling them keeps the steady-state message path allocation-free
// instead of pressuring the garbage collector once per message.
//
// Ownership rule: a buffer obtained from GrabBuffer may be released exactly
// once, and only by the owner that obtained it, after every reader of the
// buffer is done. Buffers handed to task callbacks (payload copies a
// consumer assumes ownership of) escape the arena permanently and must NOT
// be released; the arena is refilled by the refcounted shared-wire wrappers
// (payload.go) and the region store, whose buffers never escape.

const (
	// arenaMinBits..arenaMaxBits bound the size classes: 64 B to 4 MiB.
	// Smaller buffers are cheaper to allocate than to pool; larger ones are
	// rare enough that pinning them in a pool wastes memory.
	arenaMinBits = 6
	arenaMaxBits = 22
)

var arenaPools [arenaMaxBits + 1]sync.Pool

// arenaBox carries a pooled buffer's slice header between Release and Grab.
// The boxes recycle through their own pool, so neither direction allocates
// in steady state: a pool of bare []byte values would box the slice header
// into the interface on every Put, costing one heap allocation per released
// buffer — on the wire receive path, one per message.
type arenaBox struct{ b []byte }

var arenaBoxes = sync.Pool{New: func() any { return new(arenaBox) }}

// Arena accounting: an opt-in grabs-minus-releases counter for leak
// regression tests. The flag is checked with one atomic load on the hot
// path; production runs leave it disabled.
var (
	arenaTrack       atomic.Bool
	arenaOutstanding atomic.Int64
)

// ArenaAccounting enables or disables outstanding-buffer accounting and
// resets the counter. Tests bracket a scenario with
// ArenaAccounting(true) … ArenaOutstanding() to prove every grabbed buffer
// was released (or deliberately escaped).
func ArenaAccounting(on bool) {
	arenaOutstanding.Store(0)
	arenaTrack.Store(on)
}

// ArenaOutstanding returns grabs minus releases since accounting was last
// enabled. Buffers handed off to consumers (which, per the ownership rule,
// escape the arena) count as outstanding — scope the accounting window to
// paths whose buffers must all come back.
func ArenaOutstanding() int64 { return arenaOutstanding.Load() }

// arenaClass returns the smallest class whose capacity holds n, or -1 when n
// is outside the pooled range.
func arenaClass(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1))
	if c < arenaMinBits {
		c = arenaMinBits
	}
	if c > arenaMaxBits {
		return -1
	}
	return c
}

// GrabBuffer returns a length-n buffer from the arena, allocating a fresh
// one when the matching pool is empty or n is outside the pooled range. The
// contents are unspecified; the caller is expected to overwrite them fully.
func GrabBuffer(n int) []byte {
	if arenaTrack.Load() {
		arenaOutstanding.Add(1)
	}
	c := arenaClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := arenaPools[c].Get(); v != nil {
		box := v.(*arenaBox)
		b := box.b[:n]
		box.b = nil
		arenaBoxes.Put(box)
		return b
	}
	return make([]byte, n, 1<<c)
}

// ReleaseBuffer returns a buffer from GrabBuffer to the arena for reuse;
// buffers outside the pooled size range are dropped. The caller must
// guarantee no reference to the buffer survives the call.
func ReleaseBuffer(b []byte) {
	if arenaTrack.Load() {
		arenaOutstanding.Add(-1)
	}
	donateBuffer(b)
}

// donateBuffer pools a buffer the arena never handed out (a fresh
// serialization the controller owns outright), so accounting does not
// count it: it was never grabbed.
func donateBuffer(b []byte) {
	if cap(b) == 0 {
		return
	}
	// Floor to the largest class the capacity fully covers, so a Grab from
	// that class can always reslice to the class's nominal size.
	c := bits.Len(uint(cap(b))) - 1
	if c < arenaMinBits || c > arenaMaxBits {
		return
	}
	box := arenaBoxes.Get().(*arenaBox)
	box.b = b[:0]
	arenaPools[c].Put(box)
}
