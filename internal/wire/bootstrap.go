package wire

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// bootstrap establishes the full connection mesh for one rank and returns
// the per-rank connections (nil at the local rank) plus the shared-memory
// ring regions negotiated for co-located pairs (nil where the pair stays
// on its socket). Every rank runs the same three steps: listen opens its
// data listeners, rendezvous registers with rank 0 and returns the endpoint
// table, and pairUp links every pair over the transport linkFor picks.
func bootstrap(opt Options) ([]net.Conn, []*shmRegion, error) {
	if opt.Listener != nil {
		defer opt.Listener.Close() // Connect owns it; the rendezvous ends here
	}
	conns := make([]net.Conn, opt.Ranks)
	if opt.Ranks == 1 {
		return conns, nil, nil
	}
	deadline := time.Now().Add(opt.DialTimeout)
	self, lns, cleanup, err := listen(opt, deadline)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	me := hello{Rank: opt.Rank, Ranks: opt.Ranks, Epoch: opt.Epoch, Tier: opt.Tier,
		Fingerprint: opt.Fingerprint, Endpoint: self}
	eps, err := rendezvous(opt, me, deadline)
	if err != nil {
		return nil, nil, err
	}
	regs := make([]*shmRegion, opt.Ranks)
	if err := pairUp(opt, me, eps, lns, conns, regs, deadline); err != nil {
		closeAll(conns)
		closeRegions(regs)
		return nil, nil, err
	}
	return conns, regs, nil
}

// listen opens this rank's data listeners — TCP on the rendezvous host,
// plus a unix socket and a shm ring directory where the tier may use them —
// and returns the endpoint advertising them, the listeners, and a cleanup
// that removes them. A unix or shm setup failure only leaves that field of
// the endpoint empty; linkFor then refuses whatever a strict tier cannot
// serve without it.
func listen(opt Options, deadline time.Time) (self endpoint, lns []net.Listener, cleanup func(), err error) {
	host, _, err := net.SplitHostPort(opt.Addr)
	if err != nil || host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return self, nil, nil, fmt.Errorf("wire: rank %d data listen: %w", opt.Rank, err)
	}
	lns = []net.Listener{ln}
	var dirs []string
	self = endpoint{TCP: ln.Addr().String(), HostID: opt.HostID, ShmGen: uint64(opt.Epoch)}
	if opt.Tier != TierTCP {
		if dir, err := os.MkdirTemp("", "bfwire-"); err == nil {
			dirs = append(dirs, dir)
			if uln, err := net.Listen("unix", filepath.Join(dir, fmt.Sprintf("r%d.sock", opt.Rank))); err == nil {
				lns = append(lns, uln)
				self.Unix = uln.Addr().String()
			}
		}
	}
	// The shm doorbell rides the unix socket. Ring files are unlinked as
	// soon as the peer maps them, so the cleanup leaves nothing behind.
	if self.Unix != "" && opt.Tier != TierUnix {
		if dir, err := shmDataDir(); err == nil {
			dirs = append(dirs, dir)
			self.Shm = dir
		}
	}
	for _, l := range lns {
		setListenerDeadline(l, deadline)
	}
	return self, lns, func() {
		for _, l := range lns {
			l.Close()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}, nil
}

// rendezvous registers this rank and returns the endpoint table, indexed by
// rank. Rank 0 accepts and vets a hello from every other rank, answers each
// with the table and closes the registration connections; every other rank
// dials rank 0, registers, reads the table and closes. No data link is
// made here.
func rendezvous(opt Options, me hello, deadline time.Time) ([]endpoint, error) {
	if opt.Rank != 0 {
		c, err := dialRetry(rendezvousNetwork(opt.Addr), opt.Addr, deadline)
		if err != nil {
			return nil, fmt.Errorf("wire: rank %d: rendezvous %s: %w", opt.Rank, opt.Addr, err)
		}
		defer c.Close()
		body, err := greet(c, me, 0, frameWelcome, deadline)
		if err != nil {
			return nil, err
		}
		eps, err := decodeWelcome(body)
		if err != nil || len(eps) != opt.Ranks {
			return nil, fmt.Errorf("wire: rank %d: bad welcome (%d entries): %v", opt.Rank, len(eps), err)
		}
		return eps, nil
	}
	ln := opt.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen(rendezvousNetwork(opt.Addr), opt.Addr); err != nil {
			return nil, fmt.Errorf("wire: rendezvous listen: %w", err)
		}
		defer ln.Close()
	}
	setListenerDeadline(ln, deadline)
	regConns := make([]net.Conn, opt.Ranks)
	defer closeAll(regConns)
	eps := make([]endpoint, opt.Ranks)
	eps[0] = me.Endpoint
	for n := 1; n < opt.Ranks; n++ {
		c, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("wire: rendezvous: waiting for %d more rank(s): %w", opt.Ranks-n, err)
		}
		h, err := readHello(c, deadline)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("wire: rendezvous: %w", err)
		}
		if reason := vetHello(me, h, 1, regConns); reason != "" {
			return nil, refuse(c, h.Rank, reason, deadline)
		}
		regConns[h.Rank] = c
		eps[h.Rank] = h.Endpoint
	}
	welcome, err := encodeWelcome(eps)
	if err != nil {
		return nil, err
	}
	for r := 1; r < opt.Ranks; r++ {
		if err := writeConn(regConns[r], deadline, welcome); err != nil {
			return nil, fmt.Errorf("wire: rendezvous: welcome to rank %d: %w", r, err)
		}
	}
	return eps, nil
}

// linkFor is the tier table: the network a pair's data link uses, the
// address to dial it at, and whether the pair negotiates a shm ring — or
// ErrHandshake when the tier cannot serve the pair. Its inputs are the two
// endpoints and the agreed tier and generation only, and every input is
// compared symmetrically, so both ends of a pair get the same answer: the
// dialer offers a ring exactly when the acceptor expects one.
//
//	tier  same host, unix on both  ring dir of this generation on both  link
//	tcp   any                      any                                  tcp
//	auto  no                       any                                  tcp
//	auto  yes                      no                                   unix
//	auto  yes                      yes                                  unix + ring
//	unix  yes                      any                                  unix
//	shm   yes                      yes                                  unix + ring
//	else                                                                ErrHandshake
func linkFor(opt Options, self, peer endpoint) (network, addr string, ring bool, err error) {
	tier, gen := opt.Tier, uint64(opt.Epoch)
	unix := self.HostID == peer.HostID && self.Unix != "" && peer.Unix != ""
	ring = unix && self.Shm != "" && peer.Shm != "" && self.ShmGen == gen && peer.ShmGen == gen
	switch {
	case tier == TierTCP, tier == TierAuto && !unix:
		return "tcp", peer.TCP, false, nil
	case tier == TierAuto, tier == TierShm && ring:
		return "unix", peer.Unix, ring, nil
	case tier == TierUnix && unix:
		return "unix", peer.Unix, false, nil
	case self.HostID != peer.HostID:
		return "", "", false, fmt.Errorf("%w: tier %v requires co-location, but the pair is on hosts %q and %q",
			ErrHandshake, tier, self.HostID, peer.HostID)
	case !unix:
		return "", "", false, fmt.Errorf("%w: tier %v: no unix socket open on both ends", ErrHandshake, tier)
	}
	return "", "", false, fmt.Errorf("%w: tier %v: no ring directory of generation %d on both ends", ErrHandshake, tier, gen)
}

// pairUp is the pair loop: it dials every lower rank and accepts every
// higher one, each over the link linkFor picks for the pair, in one hello →
// accept exchange per pair; where linkFor asks for a ring, the dialer's
// hello offers it and the accept says whether it was mapped. The acceptor
// refuses a dialer arriving over another network than the table gives.
func pairUp(opt Options, me hello, eps []endpoint, lns []net.Listener, conns []net.Conn, regs []*shmRegion, deadline time.Time) error {
	type link struct {
		network, addr string
		ring          bool
	}
	links := make([]link, opt.Ranks)
	for j := range eps {
		if j == opt.Rank {
			continue
		}
		network, addr, ring, err := linkFor(opt, me.Endpoint, eps[j])
		if err != nil {
			return fmt.Errorf("wire: rank %d: link to rank %d: %w", opt.Rank, j, err)
		}
		links[j] = link{network, addr, ring}
	}

	for j := 0; j < opt.Rank; j++ {
		c, err := dialRetry(links[j].network, links[j].addr, deadline)
		if err != nil {
			return fmt.Errorf("wire: rank %d: rank %d at %s: %w", opt.Rank, j, links[j].addr, err)
		}
		conns[j] = c
		if regs[j], err = dialPair(opt, me, eps[j], links[j].ring, c, j, deadline); err != nil {
			return err
		}
	}

	need := opt.Ranks - 1 - opt.Rank
	if need == 0 {
		return nil
	}
	income := acceptFrom(need+2, lns...)
	for ; need > 0; need-- {
		in := <-income
		if in.err != nil {
			return fmt.Errorf("wire: rank %d: waiting for %d higher rank(s): %w", opt.Rank, need, in.err)
		}
		c := in.c
		h, err := readHello(c, deadline)
		if err != nil {
			c.Close()
			return fmt.Errorf("wire: rank %d: %w", opt.Rank, err)
		}
		reason := vetHello(me, h, opt.Rank+1, conns)
		if got := c.LocalAddr().Network(); reason == "" && got != links[h.Rank].network {
			reason = fmt.Sprintf("rank %d dialed over %s, but the pair links over %s", h.Rank, got, links[h.Rank].network)
		}
		if reason != "" {
			return refuse(c, h.Rank, reason, deadline)
		}
		conns[h.Rank] = c
		if regs[h.Rank], err = acceptPair(opt, me, h, eps[h.Rank], links[h.Rank].ring, c, deadline); err != nil {
			return err
		}
	}
	return nil
}

// dialPair is the dialer's half of a pair handshake over c: when the pair
// links with a ring it creates the region first and names it in its hello
// (an empty path when it cannot), then reads the accept and unlinks the
// file, whose mappings outlive the name. It returns the region the pair
// settled on, nil when the pair stays on its socket.
func dialPair(opt Options, me hello, peer endpoint, ring bool, c net.Conn, to int, deadline time.Time) (*shmRegion, error) {
	var reg *shmRegion
	var declined error
	if ring {
		var err error
		if reg, err = createShmRegion(me.Endpoint.Shm, uint64(opt.Epoch), opt.ShmRingBytes); err != nil {
			declined = fmt.Errorf("%w: create ring region: %v", ErrHandshake, err)
		} else {
			me.Ring, me.RingBytes = reg.path, uint64(opt.ShmRingBytes)
			defer os.Remove(reg.path)
		}
	}
	body, err := greet(c, me, to, frameAccept, deadline)
	var mapped bool
	if err == nil {
		mapped, err = decodeAccept(body)
	}
	if err == nil && mapped {
		return reg, nil
	}
	if reg != nil {
		reg.close()
		declined = fmt.Errorf("%w: peer declined ring region", ErrHandshake)
	}
	if err != nil {
		return nil, err
	}
	return nil, settle(opt, me, peer, to, declined)
}

// acceptPair is the acceptor's half, after h is vetted: it maps the ring
// region h names when the pair links with one, confirms with the accept
// frame, and returns the region the pair settled on.
func acceptPair(opt Options, me, h hello, peer endpoint, ring bool, c net.Conn, deadline time.Time) (*shmRegion, error) {
	var reg *shmRegion
	var declined error
	if ring {
		reg, declined = mapRing(opt, h)
	}
	if err := writeConn(c, deadline, encodeAccept(reg != nil)); err != nil {
		if reg != nil {
			reg.close()
		}
		return nil, fmt.Errorf("wire: rank %d: accept to rank %d: %w", opt.Rank, h.Rank, err)
	}
	return reg, settle(opt, me, peer, h.Rank, declined)
}

// mapRing maps and validates the ring region a dialer's hello names. A
// withdrawn offer, a foreign generation, an unmappable file or a size other
// than the hello declares is a decline, reported as ErrHandshake.
func mapRing(opt Options, h hello) (*shmRegion, error) {
	gen := uint64(opt.Epoch)
	decline := func(why string) (*shmRegion, error) {
		return nil, fmt.Errorf("%w: ring region: %s", ErrHandshake, why)
	}
	if h.Ring == "" {
		return decline("offer withdrawn by peer")
	}
	if h.Endpoint.ShmGen != gen {
		return decline(fmt.Sprintf("generation %d, want %d", h.Endpoint.ShmGen, gen))
	}
	reg, err := openShmRegion(h.Ring, gen)
	if err != nil {
		return decline(err.Error())
	}
	if reg.tx.size != h.RingBytes {
		reg.close()
		return decline(fmt.Sprintf("ring size %d, offered %d", reg.tx.size, h.RingBytes))
	}
	return reg, nil
}

// settle is the one place a declined ring becomes an error or a fallback.
// Both ends see a decline with the socket in step; the tier table, asked
// again without the ring, says whether the pair may stay on the socket.
func settle(opt Options, me hello, peer endpoint, rank int, declined error) error {
	if declined == nil {
		return nil
	}
	noRing := peer
	noRing.Shm = ""
	if _, _, _, err := linkFor(opt, me.Endpoint, noRing); err != nil {
		return fmt.Errorf("wire: rank %d: shm ring with rank %d: %w (%v)", opt.Rank, rank, err, declined)
	}
	return nil
}

// greet sends this rank's hello to rank `to` and reads the reply: the body
// of a frame of type want, or the peer's refusal as ErrHandshake.
func greet(c net.Conn, me hello, to int, want byte, deadline time.Time) ([]byte, error) {
	if err := writeConn(c, deadline, encodeHello(me)); err != nil {
		return nil, fmt.Errorf("wire: rank %d: hello to rank %d: %w", me.Rank, to, err)
	}
	typ, body, err := readControl(c, deadline)
	switch {
	case err != nil:
		return nil, fmt.Errorf("wire: rank %d: reply from rank %d: %w", me.Rank, to, err)
	case typ == frameReject:
		return nil, fmt.Errorf("%w: rank %d: %s", ErrHandshake, to, body)
	case typ != want:
		return nil, fmt.Errorf("wire: rank %d: unexpected frame %d from rank %d", me.Rank, typ, to)
	}
	return body, nil
}

// refuse answers a vetted-out hello with a reject frame, closes the
// connection and returns the typed refusal.
func refuse(c net.Conn, rank int, reason string, deadline time.Time) error {
	writeConn(c, deadline, encodeReject(reason))
	c.Close()
	return fmt.Errorf("%w: rank %d: %s", ErrHandshake, rank, reason)
}

type accepted struct {
	c   net.Conn
	err error
}

// acceptFrom multiplexes Accept across the given listeners onto one
// channel. The channel is buffered generously so the acceptor goroutines
// never block after the caller stops reading; each goroutine exits on its
// listener's first error (deadline or close).
func acceptFrom(buffer int, lns ...net.Listener) <-chan accepted {
	ch := make(chan accepted, 2*buffer)
	for _, l := range lns {
		go func(l net.Listener) {
			for {
				c, err := l.Accept()
				ch <- accepted{c, err}
				if err != nil {
					return
				}
			}
		}(l)
	}
	return ch
}

// rendezvousNetwork infers the rendezvous transport from the address form:
// a filesystem path (or abstract socket name) is a unix listener, anything
// else is TCP host:port.
func rendezvousNetwork(addr string) string {
	if strings.HasPrefix(addr, "/") || strings.HasPrefix(addr, "@") {
		return "unix"
	}
	return "tcp"
}

func setListenerDeadline(ln net.Listener, deadline time.Time) {
	if l, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		l.SetDeadline(deadline)
	}
}

// vetHello validates a peer's hello against this side's own. The
// membership gate (conns == nil) serves join and drain hellos only. The
// data plane serves worker hellos with a rank in [minRank, Ranks) not yet
// connected that agree on rank count, recovery epoch and transport tier.
// Both demand the same graph fingerprint. It returns a refusal reason, or
// "" when the peer is sound.
func vetHello(me, h hello, minRank int, conns []net.Conn) string {
	gate := conns == nil
	switch {
	case gate && h.Kind != KindJoin && h.Kind != KindDrain:
		return fmt.Sprintf("%v hello on the membership gate: dial the epoch rendezvous", h.Kind)
	case gate: // no ranks to vet
	case h.Kind != KindWorker:
		return fmt.Sprintf("%v hello on the data plane: membership changes go through the gate", h.Kind)
	case h.Rank < minRank || h.Rank >= me.Ranks:
		return fmt.Sprintf("rank %d out of range [%d,%d)", h.Rank, minRank, me.Ranks)
	case conns[h.Rank] != nil:
		return fmt.Sprintf("rank %d already connected", h.Rank)
	case h.Ranks != me.Ranks:
		return fmt.Sprintf("rank count mismatch: peer says %d, local says %d", h.Ranks, me.Ranks)
	case h.Epoch != me.Epoch:
		return fmt.Sprintf("recovery epoch mismatch: peer says %d, local says %d (stale rejoin)", h.Epoch, me.Epoch)
	case h.Tier != me.Tier:
		return fmt.Sprintf("transport tier mismatch: peer says %v, local says %v", h.Tier, me.Tier)
	}
	if h.Fingerprint != me.Fingerprint {
		return fmt.Sprintf("graph fingerprint mismatch: peer %s, local %s", h.Fingerprint, me.Fingerprint)
	}
	return ""
}

// dialRetry dials addr on the given network with exponential backoff until
// the deadline — peers come up in arbitrary order, so refused connections
// (and not-yet-created socket paths) are expected during bootstrap.
func dialRetry(network, addr string, deadline time.Time) (net.Conn, error) {
	backoff := 10 * time.Millisecond
	for {
		d := net.Dialer{Deadline: deadline}
		c, err := d.Dial(network, addr)
		if err == nil {
			return c, nil
		}
		if !time.Now().Add(backoff).Before(deadline) {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// hostIDOnce caches the real host identity: the hostname qualified by the
// kernel boot id, so two containers sharing a hostname image (or two hosts
// with the default name) are still told apart. Sockets cross container
// boundaries only when the temp filesystem is shared, which tracks the
// boot id in every supported deployment.
var (
	hostIDOnce   sync.Once
	hostIDCached string
)

func defaultHostID() string {
	hostIDOnce.Do(func() {
		name, _ := os.Hostname()
		boot, _ := os.ReadFile("/proc/sys/kernel/random/boot_id")
		hostIDCached = name + "/" + strings.TrimSpace(string(boot))
	})
	return hostIDCached
}

// readControl reads one whole (small) handshake frame from a raw
// connection, verifying its CRC32C.
func readControl(c net.Conn, deadline time.Time) (byte, []byte, error) {
	c.SetReadDeadline(deadline)
	typ, n, crc, err := readFrame(c)
	if err != nil {
		return 0, nil, err
	}
	if n > 1<<20 {
		return 0, nil, fmt.Errorf("wire: oversized handshake frame (%d bytes)", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c, body); err != nil {
		return 0, nil, err
	}
	if err := verifyBody(typ, body, crc); err != nil {
		return 0, nil, err
	}
	return typ, body, nil
}

func readHello(c net.Conn, deadline time.Time) (hello, error) {
	typ, body, err := readControl(c, deadline)
	if err != nil {
		return hello{}, err
	}
	if typ != frameHello {
		return hello{}, fmt.Errorf("wire: expected hello, got frame type %d", typ)
	}
	return decodeHello(body)
}

func writeConn(c net.Conn, deadline time.Time, b []byte) error {
	c.SetWriteDeadline(deadline)
	_, err := c.Write(b)
	return err
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
