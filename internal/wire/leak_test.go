package wire

import (
	"errors"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// quietMesh bootstraps a mesh on tier whose heartbeats are effectively
// disabled, so the only arena traffic during the test window is the traffic
// the test itself generates.
func quietMesh(t *testing.T, n int, tier Tier) []*Fabric {
	t.Helper()
	fabrics, errs := connectMeshWith(t, n, func(rank int, o *Options) {
		o.Tier = tier
		o.HeartbeatInterval = time.Minute
		o.HeartbeatTimeout = 10 * time.Minute
	})
	requireMesh(t, fabrics, errs)
	return fabrics
}

// arenaMessage builds a message whose payload holds one arena buffer: a
// refcounted shared wire form with a single reference, copied into the arena
// because the source buffer is declared aliased. Dropping the reference
// (delivery, or any Send error path) must return the buffer.
func arenaMessage(t *testing.T, from, to int) fabric.Message {
	t.Helper()
	p, err := core.SharedPayload(core.Buffer([]byte("leak-test-payload")), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	return fabric.Message{From: from, To: to, Src: core.TaskId(from), Dest: core.TaskId(to), Payload: p}
}

// TestSendErrorPathsReleaseArenaBuffers proves every Send/SendN error path
// drops its payload references: a rejected or undeliverable message must not
// strand arena buffers. Regression test for the ownership rule audit — each
// failure mode below once had to be checked by hand.
func TestSendErrorPathsReleaseArenaBuffers(t *testing.T) {
	fabrics := quietMesh(t, 2, TierAuto)

	core.ArenaAccounting(true)
	defer core.ArenaAccounting(false)

	check := func(path string) {
		t.Helper()
		if n := core.ArenaOutstanding(); n != 0 {
			t.Fatalf("%s leaked %d arena buffers", path, n)
		}
	}

	// Send to a rank outside the mesh fails before any queue is touched.
	if err := fabrics[0].Send(arenaMessage(t, 0, 99)); err == nil {
		t.Fatal("Send to unknown rank succeeded")
	}
	check("Send to unknown rank")

	// SendN validates the whole batch up front: one invalid destination
	// rejects the batch and must release every payload, including the valid
	// ones that were never enqueued.
	batch := []fabric.Message{
		arenaMessage(t, 0, 1),
		arenaMessage(t, 0, -1),
		arenaMessage(t, 0, 0),
	}
	if err := fabrics[0].SendN(batch); err == nil {
		t.Fatal("SendN with invalid rank succeeded")
	}
	check("SendN with invalid rank")

	// After Cancel every path — remote outbox and local mailbox — is
	// cancelled and must keep dropping payloads.
	fabrics[0].Cancel()
	if err := fabrics[0].Send(arenaMessage(t, 0, 1)); err == nil {
		t.Fatal("Send on cancelled fabric succeeded")
	}
	if err := fabrics[0].Send(arenaMessage(t, 0, 0)); err == nil {
		t.Fatal("local Send on cancelled fabric succeeded")
	}
	if err := fabrics[0].SendN([]fabric.Message{arenaMessage(t, 0, 0), arenaMessage(t, 0, 1)}); err == nil {
		t.Fatal("SendN on cancelled fabric succeeded")
	}
	check("sends on cancelled fabric")
}

// TestFailedBatchReleasesArenaBuffers: when one frame of a drained batch
// cannot be serialized, the writer fails the fabric and must drop the
// payload references of the whole batch, the frames ahead of the bad one
// included, on every tier. The test holds a second reference to each good
// payload, so its buffer returns to the arena exactly when the test's
// release is the last one, whatever the receiver did with the frames.
func TestFailedBatchReleasesArenaBuffers(t *testing.T) {
	for _, tier := range dataTiers {
		t.Run(tier.String(), func(t *testing.T) {
			fabrics := quietMesh(t, 2, tier)

			core.ArenaAccounting(true)
			defer core.ArenaAccounting(false)

			var held []core.Payload
			var batch []fabric.Message
			for i := 0; i < 2; i++ {
				p, err := core.SharedPayload(core.Buffer([]byte("ahead-of-the-bad-frame")), 2, true)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, p)
				batch = append(batch, fabric.Message{From: 0, To: 1, Src: core.TaskId(i), Payload: p})
			}
			batch = append(batch, fabric.Message{From: 0, To: 1, Src: 2, Payload: core.Object(struct{}{})})
			if err := fabrics[0].SendN(batch); err != nil {
				t.Fatal(err)
			}
			// The bad frame fails rank 0, whose teardown fails rank 1; once
			// every loop has exited no one else touches the arena.
			for _, f := range fabrics {
				f.writers.Wait()
				f.readers.Wait()
			}
			if err := fabrics[0].Err(); !errors.Is(err, core.ErrNotSerializable) {
				t.Fatalf("rank 0: Err() = %v, want ErrNotSerializable", err)
			}
			before := core.ArenaOutstanding()
			for _, p := range held {
				p.Release()
			}
			if freed := before - core.ArenaOutstanding(); freed != int64(len(held)) {
				t.Fatalf("releasing the test's references freed %d arena buffers, want %d: the writer stranded the rest",
					freed, len(held))
			}
		})
	}
}

// TestCancelReleasesQueuedArenaBuffers proves Cancel drops the payload
// references of messages still queued in the local mailbox — the abort path
// must return fan-out buffers to the arena, not strand them.
func TestCancelReleasesQueuedArenaBuffers(t *testing.T) {
	fabrics := quietMesh(t, 2, TierAuto)

	core.ArenaAccounting(true)
	defer core.ArenaAccounting(false)

	// Queue local messages that no receiver will ever drain.
	for i := 0; i < 8; i++ {
		if err := fabrics[0].Send(arenaMessage(t, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if n := core.ArenaOutstanding(); n != 8 {
		t.Fatalf("queued %d arena buffers, want 8 outstanding", n)
	}
	fabrics[0].Cancel()
	if n := core.ArenaOutstanding(); n != 0 {
		t.Fatalf("Cancel stranded %d arena buffers", n)
	}
}
