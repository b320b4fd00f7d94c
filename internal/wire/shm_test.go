package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// Unit coverage of the shared-memory ring pair and the TierShm data path:
// the raw SPSC ring (wrap arithmetic, region validation), backpressure
// through a deliberately tiny ring, frames larger than the ring, and the
// torn-ring corruption contract (ErrCorruptFrame + peer loss).

func TestShmRingWrapAndRegionValidation(t *testing.T) {
	dir := t.TempDir()
	a, err := createShmRegion(dir, 7, minShmRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()

	// A stale generation must be refused before any ring traffic.
	if _, err := openShmRegion(a.path, 8); err == nil {
		t.Fatal("mapped a region from another generation")
	}
	b, err := openShmRegion(a.path, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	// Stream far more than the capacity through the pair in odd-sized
	// chunks so both cursors wrap several times, interleaving partial
	// pushes with partial pops.
	src := make([]byte, 10*minShmRingBytes)
	for i := range src {
		src[i] = byte(i * 31)
	}
	got := make([]byte, 0, len(src))
	buf := make([]byte, 997)
	for in := src; len(in) > 0 || len(got) < len(src); {
		if len(in) > 0 {
			n := a.tx.push(in)
			in = in[n:]
		}
		if n := b.rx.pop(buf); n > 0 {
			got = append(got, buf[:n]...)
		}
	}
	if !bytes.Equal(got, src) {
		t.Fatal("bytes through the wrapped ring are not identical")
	}
	if a.tx.free() != uint64(minShmRingBytes) {
		t.Fatalf("drained ring reports %d free bytes, want %d", a.tx.free(), minShmRingBytes)
	}
}

func TestShmRingBytesRounding(t *testing.T) {
	o := Options{Ranks: 1, Rank: 0, Addr: "127.0.0.1:1", ShmRingBytes: 5000}
	if err := o.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if o.ShmRingBytes != 8192 {
		t.Fatalf("5000 rounded to %d, want 8192", o.ShmRingBytes)
	}
	o = Options{Ranks: 1, Rank: 0, Addr: "127.0.0.1:1", ShmRingBytes: 100}
	if err := o.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if o.ShmRingBytes != minShmRingBytes {
		t.Fatalf("100 clamped to %d, want %d", o.ShmRingBytes, minShmRingBytes)
	}
	o = Options{Ranks: 1, Rank: 0, Addr: "127.0.0.1:1"}
	if err := o.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if o.ShmRingBytes != defaultShmRingBytes {
		t.Fatalf("default ring %d, want %d", o.ShmRingBytes, defaultShmRingBytes)
	}
}

// TestShmSmallRingBackpressure pushes far more bytes than a minimum-size
// ring holds while the consumer drains slowly: the producer must park on
// pwait and resume on the relayed doorbell, delivering every frame in
// order with no loss.
func TestShmSmallRingBackpressure(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 2, func(r int, o *Options) {
		o.Tier = TierShm
		o.ShmRingBytes = minShmRingBytes
	})
	requireMesh(t, fabrics, errs)

	const msgs = 64
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() {
		for i := 0; i < msgs; i++ {
			fabrics[0].Send(fabric.Message{
				From: 0, To: 1, Seq: uint64(i),
				Payload: core.Buffer(append([]byte(nil), payload...)),
			})
		}
	}()
	for i := 0; i < msgs; i++ {
		if i%8 == 0 {
			time.Sleep(2 * time.Millisecond) // let the ring fill
		}
		m, ok := fabrics[1].Recv(1)
		if !ok {
			t.Fatalf("mesh closed after %d of %d messages", i, msgs)
		}
		if m.Seq != uint64(i) {
			t.Fatalf("message %d arrived with seq %d: FIFO broken", i, m.Seq)
		}
		w, err := m.Payload.Wire()
		if err != nil || !bytes.Equal(w, payload) {
			t.Fatalf("message %d corrupted through the ring (err %v)", i, err)
		}
		m.Payload.Release()
	}
}

// TestShmLargeFrameStreams sends a payload several times the ring size:
// it must stream through in chunks, arriving intact.
func TestShmLargeFrameStreams(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 2, func(r int, o *Options) {
		o.Tier = TierShm
		o.ShmRingBytes = minShmRingBytes
	})
	requireMesh(t, fabrics, errs)

	big := make([]byte, 5*minShmRingBytes)
	for i := range big {
		big[i] = byte(i * 13)
	}
	go fabrics[0].Send(fabric.Message{From: 0, To: 1, Payload: core.Buffer(append([]byte(nil), big...))})
	m, ok := fabrics[1].Recv(1)
	if !ok {
		t.Fatal("mesh closed before the large frame arrived")
	}
	w, err := m.Payload.Wire()
	if err != nil || !bytes.Equal(w, big) {
		t.Fatalf("large frame corrupted (len %d vs %d, err %v)", len(w), len(big), err)
	}
	m.Payload.Release()
}

// TestShmShutdownDrainsRing checks the goodbye-with-final-tail protocol:
// everything queued before Shutdown is delivered, then the departure is
// clean on both sides.
func TestShmShutdownDrainsRing(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 2, func(r int, o *Options) {
		o.Tier = TierShm
		o.ShmRingBytes = minShmRingBytes
	})
	requireMesh(t, fabrics, errs)

	const msgs = 200
	batch := make([]fabric.Message, msgs)
	for i := range batch {
		batch[i] = fabric.Message{From: 0, To: 1, Seq: uint64(i), Payload: core.Buffer(make([]byte, 512))}
	}
	if err := fabrics[0].SendN(batch); err != nil {
		t.Fatal(err)
	}
	sdone := make(chan error, 1)
	go func() { sdone <- fabrics[0].Shutdown(10 * time.Second) }()
	for i := 0; i < msgs; i++ {
		m, ok := fabrics[1].Recv(1)
		if !ok {
			t.Fatalf("mesh closed after %d of %d queued messages", i, msgs)
		}
		m.Payload.Release()
	}
	if err := fabrics[1].Shutdown(10 * time.Second); err != nil {
		t.Fatalf("receiver shutdown: %v", err)
	}
	if err := <-sdone; err != nil {
		t.Fatalf("sender shutdown: %v", err)
	}
}

// TestShmCorruptRingDeclaresPeerLost arms the ring fault injection: the
// receiver must reject the frame with a typed ErrCorruptFrame, classify
// the sender as lost, and never deliver the corrupted payload — the same
// contract the socket tiers prove with a WrapConn bit flip.
func TestShmCorruptRingDeclaresPeerLost(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 2, func(r int, o *Options) {
		o.Tier = TierShm
		o.HeartbeatInterval = 50 * time.Millisecond
		o.HeartbeatTimeout = 2 * time.Second
	})
	requireMesh(t, fabrics, errs)

	if !fabrics[0].CorruptNextShmFrame(1) {
		t.Fatal("CorruptNextShmFrame found no shm link to rank 1")
	}
	if err := fabrics[0].Send(fabric.Message{
		From: 0, To: 1, Src: 1, Dest: 2,
		Payload: core.Buffer([]byte("integrity matters")),
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() {
		m, ok := fabrics[1].Recv(1)
		if ok {
			m.Payload.Release()
		}
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("corrupted ring frame was delivered as a valid message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver neither delivered nor failed")
	}
	err := fabrics[1].Err()
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("Err() = %v, want ErrCorruptFrame", err)
	}
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("Err() = %v, must also classify as ErrPeerLost for recovery", err)
	}
	if lost := fabrics[1].LostPeers(); len(lost) != 1 || lost[0] != 0 {
		t.Fatalf("LostPeers = %v, want [0]", lost)
	}
	// The uncorrupted direction must not have been poisoned: rank 0 only
	// learns of the teardown through the connection closing.
	if !fabrics[0].CorruptNextShmFrame(1) {
		t.Fatal("shm link vanished from the sender side")
	}
}

// TestShmStreamParksMidFrame streams 1 MiB messages, each allocated and
// filled by the sender as it goes, so the consumer drains the ring faster
// than the producer fills it and parks on the doorbell socket in the middle
// of a frame. The park must not disturb the frame or data header being
// read: every message arrives intact and in order.
func TestShmStreamParksMidFrame(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 2, func(r int, o *Options) { o.Tier = TierShm })
	requireMesh(t, fabrics, errs)
	const msgs, size = 32, 1 << 20
	fill := func(i int) []byte {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(i + j*7)
		}
		return b
	}
	go func() {
		for i := 0; i < msgs; i++ {
			if err := fabrics[0].Send(fabric.Message{From: 0, To: 1, Src: 3, Dest: 4, Seq: uint64(i), Payload: core.Buffer(fill(i))}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < msgs; i++ {
		m, ok := fabrics[1].Recv(1)
		if !ok {
			t.Fatalf("mesh closed after %d of %d messages", i, msgs)
		}
		if m.Seq != uint64(i) || m.Src != 3 || m.Dest != 4 {
			t.Fatalf("message %d arrived as seq %d, %d -> %d", i, m.Seq, m.Src, m.Dest)
		}
		if !bytes.Equal(m.Payload.Data, fill(i)) {
			t.Fatalf("message %d corrupted through the ring", i)
		}
		m.Payload.Release()
	}
}
