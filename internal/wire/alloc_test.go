package wire

import (
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// Allocation regression tests: pin the steady-state allocation count of the
// wire send/receive paths so a change that silently adds per-message heap
// traffic fails loudly. The bounds have headroom over the measured numbers
// (see bench_test.go) because AllocsPerRun averages over global mallocs and
// the runtime occasionally charges unrelated background work to the window;
// a real regression (per-message buffer or closure allocations) blows
// through them immediately.

// measureRoundTrip reports the average global allocations of one 64-byte
// round trip over an established 2-rank mesh: send, echo, receive.
func measureRoundTrip(t *testing.T, fabrics []*Fabric) float64 {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, ok := fabrics[1].Recv(1)
			if !ok {
				return
			}
			if err := fabrics[1].Send(fabric.Message{From: 1, To: 0, Payload: m.Payload}); err != nil {
				return
			}
		}
	}()
	payload := core.Buffer(make([]byte, 64))
	roundTrip := func() {
		if err := fabrics[0].Send(fabric.Message{From: 0, To: 1, Payload: payload}); err != nil {
			t.Error(err)
			return
		}
		if _, ok := fabrics[0].Recv(0); !ok {
			t.Error("lost pong")
		}
	}
	// Warm the arena and the writers before measuring.
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	avg := testing.AllocsPerRun(512, roundTrip)
	t.Logf("AVG %.2f", avg)
	fabrics[1].Cancel()
	<-done
	return avg
}

func TestRoundTripAllocsTCP(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 2, func(rank int, o *Options) {
		o.Tier = TierTCP
	})
	requireMesh(t, fabrics, errs)
	// Measured 2 allocs per round trip (the receive-side arena wrapper on
	// each side): each peer's reader reads frame and data headers into its
	// own scratch. A header back on the heap costs one more per received
	// frame, 4 per round trip in all, which the bound fails.
	if avg := measureRoundTrip(t, fabrics); avg > 3 {
		t.Errorf("TCP round trip averaged %.1f allocs, want <= 3", avg)
	}
}

func TestRoundTripAllocsUnix(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 2, func(rank int, o *Options) {
		o.Tier = TierUnix
	})
	requireMesh(t, fabrics, errs)
	// Measured 2, as over TCP.
	if avg := measureRoundTrip(t, fabrics); avg > 3 {
		t.Errorf("unix round trip averaged %.1f allocs, want <= 3", avg)
	}
}

func TestRoundTripAllocsShm(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 2, func(rank int, o *Options) {
		o.Tier = TierShm
	})
	requireMesh(t, fabrics, errs)
	// Measured 2 allocs per round trip (the receive-side arena wrapper on
	// each side): the ring path allocates nothing of its own. The bound
	// fails a per-batch allocation in the writer — a frame header on the
	// heap costs one per direction, 4 in all.
	if avg := measureRoundTrip(t, fabrics); avg > 3 {
		t.Errorf("shm round trip averaged %.1f allocs, want <= 3", avg)
	}
}

// TestStreamingAllocsPerMessage pins the per-message allocation count of the
// batched streaming path: SendN on the sender, RecvBatch plus arena release
// on the receiver — the path the throughput benchmarks exercise.
func TestStreamingAllocsPerMessage(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 2, func(rank int, o *Options) {
		o.Tier = TierTCP
	})
	requireMesh(t, fabrics, errs)

	const batchSize = 64
	acks := make(chan struct{}, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		dst := make([]fabric.Message, batchSize)
		pending := 0
		for {
			n, ok := fabrics[1].RecvBatch(1, dst)
			if !ok {
				return
			}
			for i := 0; i < n; i++ {
				core.ReleaseBuffer(dst[i].Payload.Data)
				dst[i] = fabric.Message{}
			}
			for pending += n; pending >= batchSize; pending -= batchSize {
				acks <- struct{}{}
			}
		}
	}()

	payload := core.Buffer(make([]byte, 64))
	batch := make([]fabric.Message, batchSize)
	sendBatch := func() {
		for i := range batch {
			batch[i] = fabric.Message{From: 0, To: 1, Src: 0, Dest: 1, Payload: payload}
		}
		if err := fabrics[0].SendN(batch); err != nil {
			t.Error(err)
			return
		}
		<-acks
	}
	for i := 0; i < 8; i++ {
		sendBatch()
	}
	avg := testing.AllocsPerRun(64, sendBatch)
	fabrics[1].Cancel()
	<-done

	// Measured 2 allocs per message (the receive-side payload wrapper pair);
	// the bound also absorbs the ack hand-off amortized across the batch.
	if perMsg := avg / batchSize; perMsg > 3 {
		t.Errorf("streaming path averaged %.2f allocs per message, want <= 3", perMsg)
	}
}
