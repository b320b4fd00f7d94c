// Fast-path microbenchmarks: the message/data plane in isolation (mailbox
// operations, wire cloning, fan-out routing). Run them with
// go test -run='^$' -bench='Mailbox|Fabric|Clone|FanOut' . — the end-to-end
// effect of this path is what `make bench` measures (bench/README.md).
package babelflow_test

import (
	"sync"
	"testing"

	babelflow "github.com/babelflow/babelflow-go"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// benchBlob is a Serializable in-memory payload object: serialization costs
// one allocation plus one copy, like the real mergetree/render payloads.
type benchBlob struct{ data []byte }

func (b benchBlob) Serialize() []byte {
	cp := make([]byte, len(b.data))
	copy(cp, b.data)
	return cp
}

// BenchmarkMailbox measures one Put/Get pair on a single mailbox — the
// per-message cost of the fabric's queue.
func BenchmarkMailbox(b *testing.B) {
	mb := fabric.NewMailbox()
	payload := core.Buffer(make([]byte, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.Put(fabric.Message{Payload: payload})
		if _, ok := mb.TryGet(); !ok {
			b.Fatal("lost message")
		}
	}
}

// BenchmarkFabricThroughput measures sustained messages/sec between two
// ranks: a producer streams batches to rank 1 while a consumer drains it.
// Both sides use the batch fast path (SendN/RecvBatch), the transfer mode
// of the controllers' routing and receive loops; ops/sec is messages/sec.
// In-flight traffic is bounded by a credit window, as it is in a real run
// (a rank's backlog is bounded by its tasks' in-degrees), so the benchmark
// measures steady-state transfer, not unbounded queue growth.
func BenchmarkFabricThroughput(b *testing.B) {
	const (
		batchSize = 64
		window    = 8 // batches in flight
	)
	f := fabric.New(2)
	payload := core.Buffer(make([]byte, 64))
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		defer wg.Done()
		dst := make([]fabric.Message, batchSize)
		received := 0
		for {
			n, ok := f.RecvBatch(1, dst)
			if !ok {
				return
			}
			received += n
			for received >= batchSize {
				received -= batchSize
				credits <- struct{}{}
			}
		}
	}()
	batch := make([]fabric.Message, 0, batchSize)
	for i := 0; i < b.N; i++ {
		batch = append(batch, fabric.Message{From: 0, To: 1, Src: 0, Dest: 1, Payload: payload})
		if len(batch) == batchSize || i == b.N-1 {
			if len(batch) == batchSize {
				<-credits
			}
			if err := f.SendN(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	f.Close(1)
	wg.Wait()
}

// BenchmarkCloneForWire measures producing an owned wire form of a payload,
// for a binary payload and for an in-memory Serializable object.
func BenchmarkCloneForWire(b *testing.B) {
	raw := make([]byte, 4096)
	b.Run("data-4KiB", func(b *testing.B) {
		p := core.Buffer(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.CloneForWire(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("object-4KiB", func(b *testing.B) {
		p := core.Object(benchBlob{data: raw})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.CloneForWire(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFanOutRouting measures the MPI controller on a fan-out-heavy
// broadcast dataflow with 16 KiB Serializable object payloads: every
// internal task's single output slot multicasts to 8 consumers, so the
// routing layer's per-consumer serialization policy dominates.
func BenchmarkFanOutRouting(b *testing.B) {
	graph, err := babelflow.NewBroadcast(64, 8)
	if err != nil {
		b.Fatal(err)
	}
	blob := benchBlob{data: make([]byte, 16384)}
	forward := func(in []babelflow.Payload, id babelflow.TaskId) ([]babelflow.Payload, error) {
		t, _ := graph.Task(id)
		out := make([]babelflow.Payload, len(t.Outgoing))
		for s := range out {
			out[s] = babelflow.Object(blob)
		}
		return out, nil
	}
	taskMap := babelflow.NewModuloMap(4, graph.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := babelflow.NewMPI()
		if err := c.Initialize(graph, taskMap); err != nil {
			b.Fatal(err)
		}
		for _, cid := range graph.Callbacks() {
			c.RegisterCallback(cid, forward)
		}
		initial := map[babelflow.TaskId][]babelflow.Payload{}
		for _, id := range graph.TaskIds() {
			t, _ := graph.Task(id)
			for _, in := range t.Incoming {
				if in == core.ExternalInput {
					initial[id] = append(initial[id], babelflow.Object(blob))
				}
			}
		}
		if _, err := c.Run(initial); err != nil {
			b.Fatal(err)
		}
	}
}
