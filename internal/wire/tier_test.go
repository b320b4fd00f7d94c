package wire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// connectMeshWith bootstraps n in-process fabrics, letting the caller
// adjust each rank's options (tier, host identity) before Connect. Errors
// are returned, not fatal, so refusal paths are testable.
func connectMeshWith(t *testing.T, n int, adjust func(rank int, o *Options)) ([]*Fabric, []error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return connectMeshOn(t, ln, n, adjust)
}

// connectMeshOn is connectMeshWith over a caller-supplied rendezvous
// listener, which rank 0 takes ownership of.
func connectMeshOn(t *testing.T, ln net.Listener, n int, adjust func(rank int, o *Options)) ([]*Fabric, []error) {
	t.Helper()
	fabrics := make([]*Fabric, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		o := Options{Rank: r, Ranks: n, Addr: ln.Addr().String(), DialTimeout: 5 * time.Second}
		if r == 0 {
			o.Listener = ln
		}
		if adjust != nil {
			adjust(r, &o)
		}
		wg.Add(1)
		go func(r int, o Options) {
			defer wg.Done()
			fabrics[r], errs[r] = Connect(o)
		}(r, o)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, f := range fabrics {
			if f != nil {
				f.Kill()
			}
		}
	})
	return fabrics, errs
}

func requireMesh(t *testing.T, fabrics []*Fabric, errs []error) {
	t.Helper()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	_ = fabrics
}

// expectNetworks asserts the transport of every pair in the mesh.
func expectNetworks(t *testing.T, fabrics []*Fabric, want func(i, j int) string) {
	t.Helper()
	for i, f := range fabrics {
		for j := range fabrics {
			if i == j {
				continue
			}
			if got, w := f.PeerNetwork(j), want(i, j); got != w {
				t.Errorf("rank %d -> %d over %q, want %q", i, j, got, w)
			}
		}
	}
}

// roundTrip proves the mesh actually carries data: every rank sends to
// every other rank and receives from every other rank.
func roundTrip(t *testing.T, fabrics []*Fabric) {
	t.Helper()
	n := len(fabrics)
	for i, f := range fabrics {
		for j := range fabrics {
			if i == j {
				continue
			}
			payload := core.Buffer([]byte{byte(i), byte(j)})
			if err := f.Send(fabric.Message{From: i, To: j, Payload: payload}); err != nil {
				t.Fatalf("send %d -> %d: %v", i, j, err)
			}
		}
	}
	for i, f := range fabrics {
		for k := 0; k < n-1; k++ {
			m, ok := f.Recv(i)
			if !ok {
				t.Fatalf("rank %d: mesh closed after %d receives", i, k)
			}
			w, err := m.Payload.Wire()
			if err != nil || len(w) != 2 || int(w[1]) != i {
				t.Fatalf("rank %d: bad payload %v (err %v)", i, w, err)
			}
		}
	}
}

func TestTierAutoCoLocatedUsesShm(t *testing.T) {
	// All ranks share the real host identity, so TierAuto must put every
	// pair — rank 0's included — on the shared-memory rings
	// (shm > unix > tcp).
	fabrics, errs := connectMeshWith(t, 3, nil)
	requireMesh(t, fabrics, errs)
	expectNetworks(t, fabrics, func(i, j int) string { return "shm" })
	roundTrip(t, fabrics)
}

func TestTierAutoSplitHosts(t *testing.T) {
	// Ranks 0 and 1 share host "a"; rank 2 lives on host "b". Only the 0-1
	// pair may ride shared memory; every pair touching rank 2 stays TCP.
	host := func(r int) string {
		if r < 2 {
			return "host-a"
		}
		return "host-b"
	}
	fabrics, errs := connectMeshWith(t, 3, func(r int, o *Options) { o.HostID = host(r) })
	requireMesh(t, fabrics, errs)
	expectNetworks(t, fabrics, func(i, j int) string {
		if host(i) == host(j) {
			return "shm"
		}
		return "tcp"
	})
	roundTrip(t, fabrics)
}

func TestTierTCPForcesTCP(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 3, func(r int, o *Options) { o.Tier = TierTCP })
	requireMesh(t, fabrics, errs)
	expectNetworks(t, fabrics, func(i, j int) string { return "tcp" })
	roundTrip(t, fabrics)
}

// TestTierOverUnixRendezvous: the rendezvous network must not leak into
// the data links. Registration over a unix socket path carries no data, so
// TierTCP still puts every pair — rank 0's included — on TCP, and TierAuto
// still puts every co-located pair on shared memory.
func TestTierOverUnixRendezvous(t *testing.T) {
	for _, tc := range []struct {
		tier Tier
		want string
	}{{TierTCP, "tcp"}, {TierAuto, "shm"}} {
		t.Run(tc.tier.String(), func(t *testing.T) {
			dir, err := os.MkdirTemp("", "bfrdv-")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.RemoveAll(dir) })
			ln, err := net.Listen("unix", filepath.Join(dir, "rdv.sock"))
			if err != nil {
				t.Fatal(err)
			}
			fabrics, errs := connectMeshOn(t, ln, 3, func(r int, o *Options) {
				o.Addr = ln.Addr().String()
				o.Tier = tc.tier
			})
			requireMesh(t, fabrics, errs)
			expectNetworks(t, fabrics, func(i, j int) string { return tc.want })
			roundTrip(t, fabrics)
		})
	}
}

func TestTierUnixStrict(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 3, func(r int, o *Options) { o.Tier = TierUnix })
	requireMesh(t, fabrics, errs)
	expectNetworks(t, fabrics, func(i, j int) string { return "unix" })
	roundTrip(t, fabrics)
}

func TestTierUnixRejectsCrossHost(t *testing.T) {
	_, errs := connectMeshWith(t, 2, func(r int, o *Options) {
		o.Tier = TierUnix
		if r == 1 {
			o.HostID = "elsewhere"
		}
	})
	failed := false
	for _, err := range errs {
		if err != nil {
			failed = true
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("cross-host tier unix failed with %v, want ErrHandshake", err)
			}
		}
	}
	if !failed {
		t.Fatal("tier unix bootstrapped across distinct host identities")
	}
}

func TestTierShmStrict(t *testing.T) {
	fabrics, errs := connectMeshWith(t, 3, func(r int, o *Options) { o.Tier = TierShm })
	requireMesh(t, fabrics, errs)
	expectNetworks(t, fabrics, func(i, j int) string { return "shm" })
	roundTrip(t, fabrics)
}

func TestTierShmRejectsCrossHost(t *testing.T) {
	_, errs := connectMeshWith(t, 2, func(r int, o *Options) {
		o.Tier = TierShm
		if r == 1 {
			o.HostID = "elsewhere"
		}
	})
	failed := false
	for _, err := range errs {
		if err != nil {
			failed = true
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("cross-host tier shm failed with %v, want ErrHandshake", err)
			}
		}
	}
	if !failed {
		t.Fatal("tier shm bootstrapped across distinct host identities")
	}
}

func TestTierMismatchRejected(t *testing.T) {
	_, errs := connectMeshWith(t, 2, func(r int, o *Options) {
		if r == 1 {
			o.Tier = TierTCP
		}
	})
	failed := false
	for _, err := range errs {
		if err != nil && errors.Is(err, ErrHandshake) {
			failed = true
		}
	}
	if !failed {
		t.Fatalf("tier mismatch bootstrapped: %v", errs)
	}
}

func TestParseTier(t *testing.T) {
	for s, want := range map[string]Tier{"": TierAuto, "auto": TierAuto, "tcp": TierTCP, "unix": TierUnix, "shm": TierShm} {
		got, err := ParseTier(s)
		if err != nil || got != want {
			t.Fatalf("ParseTier(%q) = %v, %v", s, got, err)
		}
	}
	_, err := ParseTier("carrier-pigeon")
	if err == nil {
		t.Fatal("ParseTier accepted nonsense")
	}
	// The refusal names every valid tier, so a typo'd flag is self-healing.
	for _, name := range []string{"auto", "tcp", "unix", "shm"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-tier error %q does not mention %q", err, name)
		}
	}
	for _, tier := range []Tier{TierAuto, TierTCP, TierUnix, TierShm} {
		back, err := ParseTier(tier.String())
		if err != nil || back != tier {
			t.Fatalf("round-trip %v: %v, %v", tier, back, err)
		}
	}
}

// TestLinkForTable drives the tier table with zero sockets. It covers every
// tier × same or different host × unix socket open on each end × ring
// directory on each end × each end's ring generation current or stale.
// Every combination must get the link linkFor's doc table gives. Both ends
// of a pair must get the same network and ring, which is what lets the
// dialer offer a ring exactly when the acceptor expects one.
func TestLinkForTable(t *testing.T) {
	type link struct {
		network string // "" means refused with ErrHandshake
		ring    bool
	}
	// linkFor's doc table, row for row. The first matching row wins, "*"
	// matches either answer, and no matching row means refused.
	table := []struct {
		tier            Tier
		colocated, ring string
		want            link
	}{
		{TierTCP, "*", "*", link{"tcp", false}},
		{TierAuto, "n", "*", link{"tcp", false}},
		{TierAuto, "y", "n", link{"unix", false}},
		{TierAuto, "y", "y", link{"unix", true}},
		{TierUnix, "y", "*", link{"unix", false}},
		{TierShm, "y", "y", link{"unix", true}},
	}
	match := func(col string, v bool) bool { return col == "*" || (col == "y") == v }
	const epoch = 3
	side := func(name, host string, unix, shm, stale bool) endpoint {
		ep := endpoint{TCP: name + ":1", HostID: host, ShmGen: epoch}
		if unix {
			ep.Unix = "/tmp/" + name + ".sock"
		}
		if shm {
			ep.Shm = "/dev/shm/" + name
		}
		if stale {
			ep.ShmGen = epoch - 1
		}
		return ep
	}
	used := make([]int, len(table))
	refused := 0
	for _, tier := range []Tier{TierAuto, TierTCP, TierUnix, TierShm} {
		for bits := 0; bits < 1<<7; bits++ {
			bit := func(i int) bool { return bits&(1<<i) != 0 }
			sameHost, unixA, unixB, shmA, shmB, staleA, staleB := bit(0), bit(1), bit(2), bit(3), bit(4), bit(5), bit(6)
			hostB := "host-b"
			if sameHost {
				hostB = "host-a"
			}
			a := side("a", "host-a", unixA, shmA, staleA)
			b := side("b", hostB, unixB, shmB, staleB)
			colocated := sameHost && unixA && unixB
			ringDirs := shmA && shmB && !staleA && !staleB
			var want link
			row := -1
			for i, r := range table {
				if r.tier == tier && match(r.colocated, colocated) && match(r.ring, ringDirs) {
					want, row = r.want, i
					break
				}
			}
			if row >= 0 {
				used[row]++
			} else {
				refused++
			}
			name := fmt.Sprintf("tier=%v sameHost=%v unix=%v/%v shm=%v/%v stale=%v/%v",
				tier, sameHost, unixA, unixB, shmA, shmB, staleA, staleB)
			opt := Options{Tier: tier, Epoch: epoch}
			network, addr, ring, err := linkFor(opt, a, b)
			if want.network == "" {
				if !errors.Is(err, ErrHandshake) || network != "" || ring {
					t.Errorf("%s: got %q ring=%v err=%v, want ErrHandshake", name, network, ring, err)
				}
			} else {
				wantAddr := b.TCP
				if want.network == "unix" {
					wantAddr = b.Unix
				}
				if err != nil || network != want.network || ring != want.ring || addr != wantAddr {
					t.Errorf("%s: got %q %q ring=%v err=%v, want %q %q ring=%v",
						name, network, addr, ring, err, want.network, wantAddr, want.ring)
				}
			}
			backNet, _, backRing, backErr := linkFor(opt, b, a)
			if backNet != network || backRing != ring || (backErr == nil) != (err == nil) {
				t.Errorf("%s: a->b is %q ring=%v err=%v but b->a is %q ring=%v err=%v",
					name, network, ring, err, backNet, backRing, backErr)
			}
		}
	}
	for i, n := range used {
		if n == 0 {
			t.Errorf("table row %d (%+v) never matched", i, table[i])
		}
	}
	if refused == 0 {
		t.Error("no combination was refused")
	}
}

// TestAcceptorRefusesWrongNetwork: a dialer that arrives over another
// network than the tier table gives for the pair is refused, on both ends,
// with ErrHandshake. Rank 1 is driven by hand so it can dial rank 0's TCP
// listener although the pair's link is a unix socket.
func TestAcceptorRefusesWrongNetwork(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	root := make(chan error, 1)
	go func() {
		f, err := Connect(Options{Rank: 0, Ranks: 2, Listener: ln, DialTimeout: 5 * time.Second})
		if f != nil {
			f.Kill()
		}
		root <- err
	}()
	opt := Options{Rank: 1, Ranks: 2, Addr: ln.Addr().String(), DialTimeout: 5 * time.Second}
	if err := opt.setDefaults(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(opt.DialTimeout)
	self, _, cleanup, err := listen(opt, deadline)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	me := hello{Rank: 1, Ranks: 2, Endpoint: self}
	eps, err := rendezvous(opt, me, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if network, _, _, err := linkFor(opt, self, eps[0]); network != "unix" {
		t.Fatalf("co-located auto pair links over %q (%v), want unix", network, err)
	}
	c, err := dialRetry("tcp", eps[0].TCP, deadline)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := greet(c, me, frameAccept, deadline); !errors.Is(err, ErrHandshake) {
		t.Fatalf("dialer over tcp: %v, want ErrHandshake", err)
	}
	if err := <-root; !errors.Is(err, ErrHandshake) {
		t.Fatalf("rank 0: %v, want ErrHandshake", err)
	}
}

// helloTamper rewrites the first frame written through it, a hello, before
// passing it on: the dialer runs its real code while the acceptor sees the
// offer a broken or foreign peer would make.
type helloTamper struct {
	net.Conn
	mutate func(*hello)
}

func (c *helloTamper) Write(b []byte) (int, error) {
	if c.mutate == nil {
		return c.Conn.Write(b)
	}
	h, err := decodeHello(b[frameHeaderSize:])
	if err != nil {
		return 0, err
	}
	c.mutate(&h)
	c.mutate = nil
	if _, err := c.Conn.Write(encodeHello(h)); err != nil {
		return 0, err
	}
	return len(b), nil
}

// TestPairHandshakeRingOffers drives both halves of one pair handshake over
// net.Pipe: the dialer's hello carries the ring offer and the acceptor's
// accept answers it, one exchange. A declined offer falls back to the
// socket under auto, where the next frames cross intact both ways, and is
// ErrHandshake on both ends under shm. The dialer's region file is gone
// once it returns, whatever the outcome.
func TestPairHandshakeRingOffers(t *testing.T) {
	cases := []struct {
		name     string
		withdraw bool // the dialer cannot create its region
		mutate   func(*hello)
		mapped   bool
	}{
		{name: "mapped", mapped: true},
		{name: "withdrawn", withdraw: true},
		{name: "unmappable", mutate: func(h *hello) { h.Ring += ".missing" }},
		{name: "generation", mutate: func(h *hello) { h.Endpoint.ShmGen++ }},
		{name: "size", mutate: func(h *hello) { h.RingBytes *= 2 }},
	}
	for _, tier := range []Tier{TierAuto, TierShm} {
		for _, tc := range cases {
			t.Run(tier.String()+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				ep := func(rank int) endpoint {
					return endpoint{Unix: fmt.Sprintf("/r%d.sock", rank), HostID: "h", Shm: dir}
				}
				opt := func(rank int) Options {
					return Options{Rank: rank, Ranks: 2, Tier: tier, ShmRingBytes: minShmRingBytes}
				}
				dialer := hello{Rank: 1, Ranks: 2, Tier: tier, Endpoint: ep(1)}
				acceptor := hello{Rank: 0, Ranks: 2, Tier: tier, Endpoint: ep(0)}
				if tc.withdraw {
					dialer.Endpoint.Shm = filepath.Join(dir, "missing")
				}
				if _, _, ring, err := linkFor(opt(1), dialer.Endpoint, acceptor.Endpoint); !ring || err != nil {
					t.Fatalf("the pair does not link with a ring: %v", err)
				}
				a, b := net.Pipe()
				defer a.Close()
				defer b.Close()
				deadline := time.Now().Add(5 * time.Second)
				frame := encodeDataFrame(nil, 1, 2, 0, 3, 4, []byte("after the handshake"))
				// After a fallback the pair's next frames must cross the
				// socket intact: the acceptor sends first, the dialer answers
				// (net.Pipe is unbuffered, so the two ends alternate).
				send := func(c net.Conn) error { return writeConn(c, deadline, frame) }
				recv := func(c net.Conn) error {
					body, err := readControl(c, frameData, deadline)
					if err != nil || string(body) != string(frame[frameHeaderSize:]) {
						return fmt.Errorf("frame after the handshake: %q, %v", body, err)
					}
					return nil
				}
				type result struct {
					reg *shmRegion
					err error
				}
				accepted := make(chan result, 1)
				go func() {
					h, err := answer(b, deadline, func(hello) string { return "" })
					if err != nil {
						accepted <- result{nil, err}
						return
					}
					reg, err := acceptPair(opt(0), acceptor, h, dialer.Endpoint, true, b, deadline)
					if err == nil && reg == nil {
						if err = send(b); err == nil {
							err = recv(b)
						}
					}
					accepted <- result{reg, err}
				}()
				dreg, derr := dialPair(opt(1), dialer, acceptor.Endpoint, true, &helloTamper{a, tc.mutate}, deadline)
				if derr == nil && dreg == nil {
					if derr = recv(a); derr == nil {
						derr = send(a)
					}
				}
				acc := <-accepted
				for _, r := range []*shmRegion{dreg, acc.reg} {
					if r != nil {
						defer r.close()
					}
				}
				if left, _ := os.ReadDir(dir); len(left) != 0 {
					t.Errorf("the dialer left %d file(s) behind, want its region unlinked", len(left))
				}
				switch {
				case tc.mapped:
					if derr != nil || acc.err != nil || dreg == nil || acc.reg == nil {
						t.Fatalf("dialer %v (ring %v), acceptor %v (ring %v): want both mapped", derr, dreg != nil, acc.err, acc.reg != nil)
					}
					dreg.tx.pushAll([]byte("ring"))
					got := make([]byte, 8)
					if n := acc.reg.rx.pop(got); string(got[:n]) != "ring" {
						t.Fatalf("the acceptor's rx ring read %q, want the dialer's push", got[:n])
					}
				case tier == TierAuto:
					if derr != nil || acc.err != nil || dreg != nil || acc.reg != nil {
						t.Fatalf("dialer %v, acceptor %v: want both settled on the socket", derr, acc.err)
					}
				default:
					if !errors.Is(derr, ErrHandshake) || !errors.Is(acc.err, ErrHandshake) {
						t.Fatalf("dialer %v, acceptor %v: want ErrHandshake on both ends", derr, acc.err)
					}
				}
			})
		}
	}
}
