package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Membership gate: rank 0's standing control listener for elastic
// membership. The data-plane rendezvous of an epoch is ephemeral — it
// exists only while that epoch bootstraps, and it rejects hellos whose
// epoch or rank count disagree. The gate is the long-lived complement: a
// process that wants to JOIN the computation dials the gate with a join
// hello (same frame format, Kind=KindJoin), is admitted with a member
// identity, and then follows the coordinator's per-epoch tickets; a drain
// request is a short-lived dial with Kind=KindDrain naming the member to
// retire. The gate itself never moves data — it moves membership events to
// the coordinator and tickets back to the members.
//
// Protocol, worker side (Session):
//
//	dial gate → hello{Kind: KindJoin}       → ticket{ActionAdmit, Member}
//	loop:      ← ticket{ActionRun, epoch…}    connect data plane, run,
//	           → status{epoch, ok, detail}
//	           ← ticket{ActionDrain}          flush, stop taking work,
//	           → status{ok}
//	           ← ticket{ActionExit}           close and terminate
//
// A fence is not a frame: the coordinator tears down the current epoch's
// data plane (after Fabric.Fence suspends liveness timers and journals are
// flushed) and every member observes the collapse, reports status, and
// waits on the gate for the next epoch's ticket.

// ErrGateClosed is returned by gate operations after Close.
var ErrGateClosed = errors.New("wire: membership gate closed")

// ErrMemberGone marks a gate session whose connection dropped — the member
// process died or walked away; the coordinator should treat it as dead.
var ErrMemberGone = errors.New("wire: gate member gone")

// Event is one membership request observed by the gate.
type Event struct {
	Kind   HelloKind // KindJoin or KindDrain
	Member int       // assigned identity (join) or target member (drain)
}

// Gate is the coordinator's side of the membership protocol.
type Gate struct {
	ln     net.Listener
	fp     core.Fingerprint
	events chan Event

	mu     sync.Mutex
	next   int
	sess   map[int]*gateSession
	closed bool
	wg     sync.WaitGroup
}

type gateSession struct {
	c      net.Conn
	wmu    sync.Mutex
	status chan Status
	dead   chan struct{}
	once   sync.Once
}

func (gs *gateSession) fail() { gs.once.Do(func() { close(gs.dead); gs.c.Close() }) }

// NewGate opens the membership gate on addr (host:port, port 0 for
// ephemeral). firstMember is the identity assigned to the first joiner;
// the coordinator's own ranks occupy [0, firstMember). fp is the graph
// fingerprint every join must present.
func NewGate(addr string, firstMember int, fp core.Fingerprint) (*Gate, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: gate listen: %w", err)
	}
	g := &Gate{
		ln:     ln,
		fp:     fp,
		events: make(chan Event, 64),
		next:   firstMember,
		sess:   make(map[int]*gateSession),
	}
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// Addr returns the gate's listen address.
func (g *Gate) Addr() string { return g.ln.Addr().String() }

// Events is the stream of membership requests. The channel is buffered;
// the coordinator must drain it (a full buffer stalls admissions, never
// drops them).
func (g *Gate) Events() <-chan Event { return g.events }

func (g *Gate) acceptLoop() {
	defer g.wg.Done()
	for {
		c, err := g.ln.Accept()
		if err != nil {
			return
		}
		g.wg.Add(1)
		go g.admit(c)
	}
}

// admit performs the gate handshake on one fresh connection.
func (g *Gate) admit(c net.Conn) {
	defer g.wg.Done()
	deadline := time.Now().Add(10 * time.Second)
	h, err := readHello(c, deadline)
	if err != nil {
		c.Close()
		return
	}
	if h.Fingerprint != g.fp {
		writeConn(c, deadline, encodeReject(fmt.Sprintf("graph fingerprint mismatch: peer %s, gate %s", h.Fingerprint, g.fp)))
		c.Close()
		return
	}
	switch h.Kind {
	case KindJoin:
		g.admitJoin(c, deadline)
	case KindDrain:
		// h.Rank names the member to retire. Ack, emit, close: drain dials
		// are one-shot control requests, not sessions.
		if writeConn(c, deadline, encodeTicket(Ticket{Action: ActionAdmit, Member: h.Rank})) == nil {
			g.emit(Event{Kind: KindDrain, Member: h.Rank})
		}
		c.Close()
	default:
		writeConn(c, deadline, encodeReject("worker hello on the membership gate: dial the epoch rendezvous"))
		c.Close()
	}
}

func (g *Gate) admitJoin(c net.Conn, deadline time.Time) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		c.Close()
		return
	}
	member := g.next
	g.next++
	gs := &gateSession{c: c, status: make(chan Status, 16), dead: make(chan struct{})}
	g.sess[member] = gs
	g.mu.Unlock()

	if err := writeConn(c, deadline, encodeTicket(Ticket{Action: ActionAdmit, Member: member})); err != nil {
		g.drop(member)
		return
	}
	g.emit(Event{Kind: KindJoin, Member: member})
	g.wg.Add(1)
	go g.readStatuses(member, gs)
}

// emit delivers a membership event. The send blocks when the buffer is
// full — a dropped event would strand the member forever, so a coordinator
// that stops draining stalls admissions instead.
func (g *Gate) emit(e Event) {
	g.events <- e
}

// readStatuses is the per-session reader: status frames flow to the
// coordinator, anything else (or a broken conn) kills the session.
func (g *Gate) readStatuses(member int, gs *gateSession) {
	defer g.wg.Done()
	for {
		typ, body, err := readControl(gs.c, time.Time{})
		if err != nil {
			g.drop(member)
			return
		}
		if typ != frameStatus {
			g.drop(member)
			return
		}
		st, err := decodeStatus(body)
		if err != nil {
			g.drop(member)
			return
		}
		select {
		case gs.status <- st:
		case <-gs.dead:
			return
		}
	}
}

func (g *Gate) drop(member int) {
	g.mu.Lock()
	gs := g.sess[member]
	delete(g.sess, member)
	g.mu.Unlock()
	if gs != nil {
		gs.fail()
	}
}

func (g *Gate) session(member int) (*gateSession, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrGateClosed
	}
	gs, ok := g.sess[member]
	if !ok {
		return nil, fmt.Errorf("%w: member %d", ErrMemberGone, member)
	}
	return gs, nil
}

// SendTicket delivers a per-epoch instruction to a joined member.
func (g *Gate) SendTicket(member int, t Ticket) error {
	gs, err := g.session(member)
	if err != nil {
		return err
	}
	gs.wmu.Lock()
	defer gs.wmu.Unlock()
	if err := writeConn(gs.c, time.Now().Add(10*time.Second), encodeTicket(t)); err != nil {
		g.drop(member)
		return fmt.Errorf("%w: member %d: %v", ErrMemberGone, member, err)
	}
	return nil
}

// AwaitStatus blocks for the member's next status report.
func (g *Gate) AwaitStatus(member int, timeout time.Duration) (Status, error) {
	gs, err := g.session(member)
	if err != nil {
		return Status{}, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case st := <-gs.status:
		return st, nil
	case <-gs.dead:
		return Status{}, fmt.Errorf("%w: member %d", ErrMemberGone, member)
	case <-t.C:
		return Status{}, fmt.Errorf("wire: gate: member %d status timeout after %v", member, timeout)
	}
}

// Close shuts the gate down: the listener stops, every session connection
// is closed (members see ErrMemberGone-style EOFs) and the accept/reader
// goroutines drain.
func (g *Gate) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	sessions := make([]*gateSession, 0, len(g.sess))
	for _, gs := range g.sess {
		sessions = append(sessions, gs)
	}
	g.sess = map[int]*gateSession{}
	g.mu.Unlock()
	err := g.ln.Close()
	for _, gs := range sessions {
		gs.fail()
	}
	g.wg.Wait()
	return err
}

// Session is the member's side of the gate protocol.
type Session struct {
	c      net.Conn
	member int
}

// JoinGate dials the membership gate with a join hello and blocks for
// admission. The returned session carries the assigned member identity.
func JoinGate(addr string, fp core.Fingerprint, timeout time.Duration) (*Session, error) {
	deadline := time.Now().Add(timeout)
	c, err := dialRetry("tcp", addr, deadline)
	if err != nil {
		return nil, fmt.Errorf("wire: join gate: %w", err)
	}
	h := hello{Kind: KindJoin, Fingerprint: fp}
	if err := writeConn(c, deadline, encodeHello(h)); err != nil {
		c.Close()
		return nil, fmt.Errorf("wire: join gate: hello: %w", err)
	}
	t, err := awaitTicket(c, deadline)
	if err != nil {
		c.Close()
		return nil, err
	}
	if t.Action != ActionAdmit {
		c.Close()
		return nil, fmt.Errorf("wire: join gate: expected admission, got action %d", t.Action)
	}
	return &Session{c: c, member: t.Member}, nil
}

// Member returns the identity the gate assigned to this session.
func (s *Session) Member() int { return s.member }

// NextTicket blocks for the coordinator's next instruction. A zero timeout
// waits indefinitely.
func (s *Session) NextTicket(timeout time.Duration) (Ticket, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	return awaitTicket(s.c, deadline)
}

// Report sends a status frame for the member's current epoch.
func (s *Session) Report(st Status) error {
	st.Member = s.member
	return writeConn(s.c, time.Now().Add(10*time.Second), encodeStatus(st))
}

// Close tears the session down.
func (s *Session) Close() error { return s.c.Close() }

func awaitTicket(c net.Conn, deadline time.Time) (Ticket, error) {
	typ, body, err := readControl(c, deadline)
	if err != nil {
		return Ticket{}, fmt.Errorf("wire: gate ticket: %w", err)
	}
	switch typ {
	case frameTicket:
		return decodeTicket(body)
	case frameReject:
		return Ticket{}, fmt.Errorf("%w: gate refused: %s", ErrHandshake, string(body))
	default:
		return Ticket{}, fmt.Errorf("wire: expected ticket, got frame type %d", typ)
	}
}

// RequestDrain dials the gate and asks for member to be gracefully
// retired. It returns once the gate has acknowledged the request; the
// hand-off itself happens at the coordinator's next epoch boundary.
func RequestDrain(addr string, member int, fp core.Fingerprint, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c, err := dialRetry("tcp", addr, deadline)
	if err != nil {
		return fmt.Errorf("wire: drain request: %w", err)
	}
	defer c.Close()
	h := hello{Kind: KindDrain, Rank: member, Fingerprint: fp}
	if err := writeConn(c, deadline, encodeHello(h)); err != nil {
		return fmt.Errorf("wire: drain request: hello: %w", err)
	}
	t, err := awaitTicket(c, deadline)
	if err != nil {
		return err
	}
	if t.Action != ActionAdmit || t.Member != member {
		return fmt.Errorf("wire: drain request: unexpected ack (action %d member %d)", t.Action, t.Member)
	}
	return nil
}
