package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Membership gate: the coordinator's standing control listener for a
// multi-process run, whether its membership changes or not (a static run
// is the one-epoch case). The data-plane rendezvous of an epoch is
// ephemeral — it exists only while that epoch bootstraps, and it rejects
// hellos whose epoch or rank count disagree. The gate is the long-lived complement: a
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
// Coordinator side (Gate): one stream, Events, carries every join, drain
// request, status and lost session; SendTicket answers.
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

// EventKind says what a gate Event reports.
type EventKind byte

const (
	// EventJoin: a joiner was admitted as Member.
	EventJoin EventKind = iota + 1
	// EventDrain: an operator asked for Member to be retired.
	EventDrain
	// EventStatus: Member reported Status.
	EventStatus
	// EventGone: Member's session dropped; it reports nothing more.
	EventGone
)

// Event is one thing the gate observed. A member's events arrive in the
// order the gate read them: its join, its statuses, then exactly one gone.
type Event struct {
	Kind   EventKind
	Member int    // admitted identity (join), drain target, or reporter
	Status Status // EventStatus only
}

// Gate is the coordinator's side of the membership protocol.
type Gate struct {
	ln     net.Listener
	fp     core.Fingerprint
	events chan Event
	done   chan struct{} // closed by Close: releases a blocked emit

	mu     sync.Mutex
	next   int
	sess   map[int]*gateSession
	closed bool
	wg     sync.WaitGroup
}

type gateSession struct {
	c   net.Conn
	wmu sync.Mutex
}

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
		done:   make(chan struct{}),
		next:   firstMember,
		sess:   make(map[int]*gateSession),
	}
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// Addr returns the gate's listen address.
func (g *Gate) Addr() string { return g.ln.Addr().String() }

// Events is the gate's one report stream: joins, drain requests, statuses
// and lost members. The channel is buffered; a coordinator that stops
// reading stalls the gate (admissions and status reads wait, nothing is
// dropped) until Close.
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
	h, err := answer(c, deadline, func(h hello) string { return vetGate(g.fp, h) })
	if err != nil {
		return
	}
	if h.Kind == KindJoin {
		g.admitJoin(c, deadline)
		return
	}
	// A drain: h.Rank names the member to retire. Ack, emit, close: drain
	// dials are one-shot control requests, not sessions.
	if writeConn(c, deadline, encodeTicket(Ticket{Action: ActionAdmit, Member: h.Rank})) == nil {
		g.emit(Event{Kind: EventDrain, Member: h.Rank})
	}
	c.Close()
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
	g.sess[member] = &gateSession{c: c}
	g.mu.Unlock()

	if err := writeConn(c, deadline, encodeTicket(Ticket{Action: ActionAdmit, Member: member})); err != nil {
		g.drop(member)
		return
	}
	g.emit(Event{Kind: EventJoin, Member: member})
	g.readStatuses(member, c)
}

// emit delivers an event. The send blocks while the buffer is full — a
// dropped event would strand a member or hide its loss — until Close.
func (g *Gate) emit(e Event) {
	select {
	case g.events <- e:
	case <-g.done:
	}
}

// readStatuses is the per-session reader: status frames flow to the
// coordinator; anything else, or a broken conn, ends the session with its
// one gone event.
func (g *Gate) readStatuses(member int, c net.Conn) {
	for {
		body, err := readControl(c, frameStatus, time.Time{})
		var st Status
		if err == nil {
			st, err = decodeStatus(body)
		}
		if err != nil {
			g.drop(member)
			g.emit(Event{Kind: EventGone, Member: member})
			return
		}
		g.emit(Event{Kind: EventStatus, Member: member, Status: st})
	}
}

func (g *Gate) drop(member int) {
	g.mu.Lock()
	gs := g.sess[member]
	delete(g.sess, member)
	g.mu.Unlock()
	if gs != nil {
		gs.c.Close()
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

// Close shuts the gate down: the listener stops, every session connection
// is closed (members see EOF), events nobody read are abandoned and the
// accept/reader goroutines drain.
func (g *Gate) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	sessions := g.sess
	g.sess = map[int]*gateSession{}
	g.mu.Unlock()
	close(g.done)
	err := g.ln.Close()
	for _, gs := range sessions {
		gs.c.Close()
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
	c, member, err := gateCall(addr, hello{Kind: KindJoin, Fingerprint: fp}, timeout)
	if err != nil {
		return nil, err
	}
	return &Session{c: c, member: member}, nil
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
	body, err := readControl(s.c, frameTicket, deadline)
	if err != nil {
		return Ticket{}, fmt.Errorf("wire: gate ticket: %w", err)
	}
	return decodeTicket(body)
}

// Report sends a status frame for the member's current epoch.
func (s *Session) Report(st Status) error {
	st.Member = s.member
	return writeConn(s.c, time.Now().Add(10*time.Second), encodeStatus(st))
}

// Close tears the session down.
func (s *Session) Close() error { return s.c.Close() }

// RequestDrain dials the gate and asks for member to be gracefully
// retired. It returns once the gate has acknowledged the request; the
// hand-off itself happens at the coordinator's next epoch boundary.
func RequestDrain(addr string, member int, fp core.Fingerprint, timeout time.Duration) error {
	c, _, err := gateCall(addr, hello{Kind: KindDrain, Rank: member, Fingerprint: fp}, timeout)
	if err == nil {
		c.Close()
	}
	return err
}

// gateCall is a dialer's one exchange with the gate: a join or drain hello
// answered by an admission ticket, which for a drain names the member to
// retire. It returns the open connection and the ticket's member.
func gateCall(addr string, h hello, timeout time.Duration) (net.Conn, int, error) {
	c, body, err := call("tcp", addr, h, frameTicket, time.Now().Add(timeout))
	if err != nil {
		return nil, 0, fmt.Errorf("wire: %v gate: %w", h.Kind, err)
	}
	t, err := decodeTicket(body)
	if err == nil && (t.Action != ActionAdmit || h.Kind == KindDrain && t.Member != h.Rank) {
		err = fmt.Errorf("expected admission, got action %d member %d", t.Action, t.Member)
	}
	if err != nil {
		c.Close()
		return nil, 0, fmt.Errorf("wire: %v gate: %w", h.Kind, err)
	}
	return c, t.Member, nil
}
