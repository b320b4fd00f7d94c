package wire

import (
	"net"
	"sync"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// Transport micro-benchmarks; the repository benchmark reports the same
// tiers end to end as wire.{tcp,unix,shm}.rtt_us / bw_mb_s (make bench).
// These exist so CI's perf-smoke job exercises the hot path — including
// under the race detector — on every change.

// benchPair bootstraps a 2-rank loopback mesh for the given data tier:
// "tcp" and "unix" name the rendezvous network (and pin the matching
// tier), "shm" rendezvouses over TCP and pins the shared-memory tier.
func benchPair(b *testing.B, network string) (send, recv *Fabric, stop func()) {
	b.Helper()
	addr, lnet := "127.0.0.1:0", "tcp"
	if network == "unix" {
		addr, lnet = benchSockPath(b), "unix"
	}
	ln, err := net.Listen(lnet, addr)
	if err != nil {
		b.Fatal(err)
	}
	fabrics := make([]*Fabric, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	tier := TierTCP // pin the tier: TierAuto would upgrade loopback to shm
	switch network {
	case "unix":
		tier = TierUnix
	case "shm":
		tier = TierShm
	}
	for r := 0; r < 2; r++ {
		o := Options{Rank: r, Ranks: 2, Addr: ln.Addr().String(), Tier: tier}
		if r == 0 {
			o.Listener = ln
		}
		wg.Add(1)
		go func(r int, o Options) {
			defer wg.Done()
			fabrics[r], errs[r] = Connect(o)
		}(r, o)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	return fabrics[0], fabrics[1], func() {
		for _, f := range fabrics {
			f.Kill()
		}
	}
}

func benchSockPath(b *testing.B) string {
	b.Helper()
	return b.TempDir() + "/bench.sock"
}

func benchLatency(b *testing.B, network string) {
	send, recv, stop := benchPair(b, network)
	defer stop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, ok := recv.Recv(1)
			if !ok {
				return
			}
			if err := recv.Send(fabric.Message{From: 1, To: 0, Payload: m.Payload}); err != nil {
				return
			}
		}
	}()
	payload := core.Buffer(make([]byte, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send.Send(fabric.Message{From: 0, To: 1, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, ok := send.Recv(0); !ok {
			b.Fatal("lost pong")
		}
	}
	b.StopTimer()
	recv.Cancel()
	wg.Wait()
}

func BenchmarkLatencyTCP(b *testing.B)  { benchLatency(b, "tcp") }
func BenchmarkLatencyUnix(b *testing.B) { benchLatency(b, "unix") }
func BenchmarkLatencyShm(b *testing.B)  { benchLatency(b, "shm") }

func benchThroughput(b *testing.B, network string, size int) {
	const (
		batchSize = 64
		window    = 8
	)
	send, recv, stop := benchPair(b, network)
	defer stop()
	payload := core.Buffer(make([]byte, size))
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		defer wg.Done()
		dst := make([]fabric.Message, batchSize)
		received := 0
		for received < b.N {
			n, ok := recv.RecvBatch(1, dst)
			if !ok {
				return
			}
			for i := 0; i < n; i++ {
				core.ReleaseBuffer(dst[i].Payload.Data)
				dst[i] = fabric.Message{}
			}
			received += n
			for i := 0; i < n; i++ {
				if (received-n+i+1)%batchSize == 0 {
					credits <- struct{}{}
				}
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
			if err := send.SendN(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	wg.Wait()
	b.StopTimer()
}

func BenchmarkThroughputTCP64(b *testing.B)   { benchThroughput(b, "tcp", 64) }
func BenchmarkThroughputUnix64(b *testing.B)  { benchThroughput(b, "unix", 64) }
func BenchmarkThroughputShm64(b *testing.B)   { benchThroughput(b, "shm", 64) }
func BenchmarkThroughputTCP4Ki(b *testing.B)  { benchThroughput(b, "tcp", 4096) }
func BenchmarkThroughputUnix4Ki(b *testing.B) { benchThroughput(b, "unix", 4096) }
func BenchmarkThroughputShm4Ki(b *testing.B)  { benchThroughput(b, "shm", 4096) }
