package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// connectMesh bootstraps n in-process fabrics over loopback, one per rank.
func connectMesh(t *testing.T, n int, opt Options) []*Fabric {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fabrics := make([]*Fabric, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		o := opt
		o.Rank, o.Ranks, o.Addr = r, n, ln.Addr().String()
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
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, f := range fabrics {
			if f != nil {
				f.Kill()
			}
		}
	})
	return fabrics
}

func shutdownAll(t *testing.T, fabrics []*Fabric) {
	t.Helper()
	var wg sync.WaitGroup
	for r, f := range fabrics {
		wg.Add(1)
		go func(r int, f *Fabric) {
			defer wg.Done()
			if err := f.Shutdown(5 * time.Second); err != nil {
				t.Errorf("rank %d shutdown: %v", r, err)
			}
		}(r, f)
	}
	wg.Wait()
}

// dataTiers are the tiers the data-path contract tests run on: the socket
// medium over TCP and over a unix socket, and the ring medium.
var dataTiers = []Tier{TierTCP, TierUnix, TierShm}

// eachTier runs test once per data tier, as a subtest named after the tier,
// with opt's Tier set to it.
func eachTier(t *testing.T, opt Options, test func(t *testing.T, opt Options)) {
	for _, tier := range dataTiers {
		opt.Tier = tier
		t.Run(tier.String(), func(t *testing.T) { test(t, opt) })
	}
}

func TestMeshRoundTrip(t *testing.T) { eachTier(t, Options{}, testMeshRoundTrip) }

func testMeshRoundTrip(t *testing.T, opt Options) {
	const n = 4
	fabrics := connectMesh(t, n, opt)
	// Every rank sends one message to every other rank; every rank must
	// receive n-1 messages with intact payloads and peer attribution.
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			msg := fabric.Message{
				From: from, To: to,
				Src: core.TaskId(from), Dest: core.TaskId(to),
				Payload: core.Buffer([]byte(fmt.Sprintf("m %d->%d", from, to))),
			}
			if err := fabrics[from].Send(msg); err != nil {
				t.Fatalf("send %d->%d: %v", from, to, err)
			}
		}
	}
	for to := 0; to < n; to++ {
		seen := map[int]bool{}
		for i := 0; i < n-1; i++ {
			m, ok := fabrics[to].Recv(to)
			if !ok {
				t.Fatalf("rank %d: recv %d failed: %v", to, i, fabrics[to].Err())
			}
			want := fmt.Sprintf("m %d->%d", m.From, to)
			if string(m.Payload.Data) != want {
				t.Fatalf("rank %d: payload %q, want %q", to, m.Payload.Data, want)
			}
			if m.Src != core.TaskId(m.From) || m.Dest != core.TaskId(to) {
				t.Fatalf("rank %d: task ids %d->%d from rank %d", to, m.Src, m.Dest, m.From)
			}
			seen[m.From] = true
		}
		if len(seen) != n-1 {
			t.Fatalf("rank %d: heard from %d peers, want %d", to, len(seen), n-1)
		}
	}
	shutdownAll(t, fabrics)
}

func TestPairwiseFIFOAndBatching(t *testing.T) { eachTier(t, Options{}, testPairwiseFIFOAndBatching) }

func testPairwiseFIFOAndBatching(t *testing.T, opt Options) {
	fabrics := connectMesh(t, 2, opt)
	const msgs = 500
	batch := make([]fabric.Message, 0, 10)
	seq := 0
	for seq < msgs {
		batch = batch[:0]
		for i := 0; i < cap(batch) && seq < msgs; i++ {
			batch = append(batch, fabric.Message{
				From: 0, To: 1, Src: core.TaskId(seq), Dest: 7,
				Payload: core.Buffer([]byte{byte(seq), byte(seq >> 8)}),
			})
			seq++
		}
		if err := fabrics[0].SendN(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		m, ok := fabrics[1].Recv(1)
		if !ok {
			t.Fatalf("recv %d failed: %v", i, fabrics[1].Err())
		}
		if m.Src != core.TaskId(i) {
			t.Fatalf("message %d arrived with src %d: FIFO order broken", i, m.Src)
		}
		if got := int(m.Payload.Data[0]) | int(m.Payload.Data[1])<<8; got != i {
			t.Fatalf("message %d payload decodes to %d", i, got)
		}
	}
	shutdownAll(t, fabrics)
}

func TestShutdownDrainsInFlight(t *testing.T) { eachTier(t, Options{}, testShutdownDrainsInFlight) }

func testShutdownDrainsInFlight(t *testing.T, opt Options) {
	fabrics := connectMesh(t, 2, opt)
	const msgs = 200
	for i := 0; i < msgs; i++ {
		if err := fabrics[0].Send(fabric.Message{
			From: 0, To: 1, Src: core.TaskId(i),
			Payload: core.Buffer(make([]byte, 1024)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Sender shuts down immediately: everything queued must still arrive
	// before the goodbye.
	sdErr := make(chan error, 1)
	go func() { sdErr <- fabrics[0].Shutdown(5 * time.Second) }()
	for i := 0; i < msgs; i++ {
		m, ok := fabrics[1].Recv(1)
		if !ok {
			t.Fatalf("recv %d failed after sender shutdown: %v", i, fabrics[1].Err())
		}
		if m.Src != core.TaskId(i) {
			t.Fatalf("message %d has src %d", i, m.Src)
		}
	}
	if err := fabrics[1].Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-sdErr; err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	fpA := core.Fingerprint{1}
	fpB := core.Fingerprint{2}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		f, err := Connect(Options{Rank: 0, Ranks: 2, Listener: ln, Fingerprint: fpA, DialTimeout: 5 * time.Second})
		if f != nil {
			f.Kill()
		}
		errs[0] = err
	}()
	go func() {
		defer wg.Done()
		f, err := Connect(Options{Rank: 1, Ranks: 2, Addr: addr, Fingerprint: fpB, DialTimeout: 5 * time.Second})
		if f != nil {
			f.Kill()
		}
		errs[1] = err
	}()
	wg.Wait()
	if !errors.Is(errs[0], ErrHandshake) {
		t.Errorf("rank 0: %v, want ErrHandshake", errs[0])
	}
	// Rank 1 sees either the typed reject or the rendezvous tearing down.
	if errs[1] == nil {
		t.Error("rank 1 connected despite fingerprint mismatch")
	}
}

func TestKilledPeerSurfacesTypedError(t *testing.T) {
	eachTier(t, Options{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 250 * time.Millisecond},
		testKilledPeerSurfacesTypedError)
}

func testKilledPeerSurfacesTypedError(t *testing.T, opt Options) {
	fabrics := connectMesh(t, 3, opt)
	fabrics[2].Kill()
	// Ranks 0 and 1 block receiving; the dead peer must unblock them with a
	// typed transport error well within the heartbeat budget.
	for _, r := range []int{0, 1} {
		done := make(chan struct{})
		go func(r int) {
			defer close(done)
			for {
				if _, ok := fabrics[r].Recv(r); !ok {
					return
				}
			}
		}(r)
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			t.Fatalf("rank %d still blocked long after peer death", r)
		}
		if err := fabrics[r].Err(); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("rank %d: Err() = %v, want ErrPeerLost", r, err)
		}
	}
}

func TestSendAfterShutdownErrClosed(t *testing.T) {
	eachTier(t, Options{}, testSendAfterShutdownErrClosed)
}

func testSendAfterShutdownErrClosed(t *testing.T, opt Options) {
	fabrics := connectMesh(t, 2, opt)
	shutdownAll(t, fabrics)
	err := fabrics[0].Send(fabric.Message{From: 0, To: 1, Payload: core.Buffer([]byte("x"))})
	if !errors.Is(err, fabric.ErrClosed) {
		t.Fatalf("send after shutdown: %v, want ErrClosed", err)
	}
	err = fabrics[0].SendN([]fabric.Message{{From: 0, To: 1, Payload: core.Buffer([]byte("y"))}})
	if !errors.Is(err, fabric.ErrClosed) {
		t.Fatalf("sendN after shutdown: %v, want ErrClosed", err)
	}
}

func TestCancelLeavesErrNil(t *testing.T) {
	fabrics := connectMesh(t, 2, Options{})
	fabrics[0].Cancel()
	if _, ok := fabrics[0].Recv(0); ok {
		t.Fatal("recv succeeded on cancelled fabric")
	}
	if err := fabrics[0].Err(); err != nil {
		t.Fatalf("controller-initiated cancel set Err: %v", err)
	}
}

func TestObjectPayloadSerializedOnWire(t *testing.T) {
	eachTier(t, Options{}, testObjectPayloadSerializedOnWire)
}

func testObjectPayloadSerializedOnWire(t *testing.T, opt Options) {
	fabrics := connectMesh(t, 2, opt)
	if err := fabrics[0].Send(fabric.Message{
		From: 0, To: 1, Payload: core.Object(blob("serialized-object")),
	}); err != nil {
		t.Fatal(err)
	}
	m, ok := fabrics[1].Recv(1)
	if !ok {
		t.Fatal("recv failed")
	}
	if string(m.Payload.Data) != "serialized-object" {
		t.Fatalf("payload = %q", m.Payload.Data)
	}
	shutdownAll(t, fabrics)
}

type blob string

func (b blob) Serialize() []byte { return []byte(b) }

func TestSnapshotCountsEgress(t *testing.T) { eachTier(t, Options{}, testSnapshotCountsEgress) }

func testSnapshotCountsEgress(t *testing.T, opt Options) {
	fabrics := connectMesh(t, 2, opt)
	for i := 0; i < 10; i++ {
		if err := fabrics[0].Send(fabric.Message{
			From: 0, To: 1, Payload: core.Buffer(make([]byte, 100)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok := fabrics[1].Recv(1); !ok {
			t.Fatal("recv failed")
		}
	}
	shutdownAll(t, fabrics)
	st := fabrics[0].Snapshot()
	if st.Messages != 10 || st.Bytes != 1000 {
		t.Fatalf("sender snapshot = %+v, want 10 msgs / 1000 bytes", st)
	}
	if st := fabrics[1].Snapshot(); st.Messages != 0 {
		t.Fatalf("receiver counted ingress as egress: %+v", st)
	}
}

// TestConnectSurvivesPeerFailingAtOnce: a link that is dead the moment it is
// established fails its read loop straight away, and the resulting Cancel
// walks every peer. Connect must have all peers in place before it starts
// any loop — under -race the old interleaved start-up reports the walk
// racing Connect's own writes.
func TestConnectSurvivesPeerFailingAtOnce(t *testing.T) {
	fabrics := connectMesh(t, 3, Options{
		Tier: TierUnix, // WrapConn intercepts socket links, not rings
		WrapConn: func(local, peer int, c net.Conn) net.Conn {
			if local != 0 {
				return c
			}
			if peer == 1 {
				c.Close() // reads fail at once
			} else {
				time.Sleep(50 * time.Millisecond) // rank 0 is still connecting
			}
			return c
		},
	})
	deadline := time.Now().Add(3 * time.Second)
	for fabrics[0].Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := fabrics[0].Err(); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("rank 0: Err() = %v, want ErrPeerLost", err)
	}
}
