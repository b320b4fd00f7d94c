package wire

import (
	"errors"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
)

// TestCorruptFrameDeclaresPeerLost flips a bit inside a data frame's
// payload in transit: the receiver must reject it with a typed
// ErrCorruptFrame, classify the sender as a lost peer (the stream is no
// longer trustworthy), and never deliver the corrupted payload.
func TestCorruptFrameDeclaresPeerLost(t *testing.T) {
	opt := Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		// Pin the socket tier: WrapConn intercepts socket writes, and under
		// TierAuto data frames ride the shm rings instead (the ring analogue
		// lives in shm_test.go, via CorruptNextShmFrame).
		Tier: TierUnix,
		// Flip a bit in the first payload byte of the first 0->1 write big
		// enough to be a data frame (heartbeats are header-only).
		WrapConn: faultinject.CorruptNthWrite(0, 1, 1, dataFrameSize(1), frameHeaderSize+dataHeaderSize),
	}
	fabrics := connectMesh(t, 2, opt)
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
			t.Fatal("corrupted frame was delivered as a valid message")
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
}

// TestStalledPeerDetectedByTightenedTimeout wedges rank 0's writes (the
// connection stays open, so only heartbeat silence gives it away) and
// checks a tightened timeout detects the stall much faster than the 4s
// default would.
func TestStalledPeerDetectedByTightenedTimeout(t *testing.T) {
	const timeout = 250 * time.Millisecond
	opt := Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  timeout,
		// WrapConn intercepts socket writes, not rings; the peer goes
		// mute from its first data-phase write.
		Tier:     TierUnix,
		WrapConn: faultinject.StallAfterWrites(0, 1, 0),
	}
	fabrics := connectMesh(t, 2, opt)
	start := time.Now()
	if _, ok := fabrics[1].Recv(1); ok {
		t.Fatal("received a message from a stalled peer")
	}
	elapsed := time.Since(start)
	if err := fabrics[1].Err(); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("Err() = %v, want ErrPeerLost", err)
	}
	if lost := fabrics[1].LostPeers(); len(lost) != 1 || lost[0] != 0 {
		t.Fatalf("LostPeers = %v, want [0]", lost)
	}
	// Detection is bounded by the tightened timeout (plus scheduling slack),
	// far under the 4s the default policy would take.
	if elapsed > 8*timeout {
		t.Fatalf("stall detected after %v; tightened timeout %v had no effect", elapsed, timeout)
	}
}
