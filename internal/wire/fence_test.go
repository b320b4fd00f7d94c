package wire

import (
	"errors"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/faultinject"
)

// TestFenceSuppressesPeerLoss is the heartbeat false-positive regression:
// while an epoch fence is open the liveness timers must be suspended, so a
// peer whose frames are merely late (a faultinject delay plan pushing every
// write past the heartbeat timeout) is NOT declared lost — the fence is a
// deliberate quiet period, not evidence of death. Dropping the fence
// re-arms the timers and the same lateness is detected as loss.
func TestFenceSuppressesPeerLoss(t *testing.T) {
	const timeout = 250 * time.Millisecond
	opt := Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  timeout,
		Tier:              TierUnix, // WrapConn intercepts socket writes, not rings
		// Every write rank 0 makes arrives ~3 timeouts late: alive, not dead.
		WrapConn: faultinject.SlowLink(faultinject.SlowPlan{Rank: 0, Base: 3 * timeout}),
	}
	fabrics := connectMesh(t, 2, opt)
	// Both ends fence: rank 1 suspends its read-side loss timer, rank 0 its
	// write-side one (its delayed heartbeat writes blow their own deadline).
	fabrics[0].Fence(true)
	fabrics[1].Fence(true)

	// Four timeout windows pass with every heartbeat arriving late; a
	// fenced fabric must not misread the silence.
	time.Sleep(4 * timeout)
	if err := fabrics[1].Err(); err != nil {
		t.Fatalf("peer declared lost during fence: %v", err)
	}
	if lost := fabrics[1].LostPeers(); len(lost) != 0 {
		t.Fatalf("LostPeers during fence = %v, want none", lost)
	}

	// Fence down: the same lateness is now a real liveness failure.
	fabrics[0].Fence(false)
	fabrics[1].Fence(false)
	deadline := time.Now().Add(10 * time.Second)
	for fabrics[1].Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("slow peer never declared lost after the fence dropped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := fabrics[1].Err(); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("Err() = %v, want ErrPeerLost", err)
	}
}

// TestGateJoinDrainRoundTrip exercises the membership gate end to end:
// join admission with identity assignment, per-epoch ticket delivery,
// status reporting, one-shot drain requests, and fingerprint vetting.
func TestGateJoinDrainRoundTrip(t *testing.T) {
	var fp core.Fingerprint
	fp[0] = 0xbf
	g, err := NewGate("127.0.0.1:0", 2, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	sess, err := JoinGate(g.Addr(), fp, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Member() != 2 {
		t.Fatalf("assigned member %d, want 2 (firstMember)", sess.Member())
	}
	ev := nextEvent(t, g)
	if ev.Kind != EventJoin || ev.Member != 2 {
		t.Fatalf("join event %+v, want a join of member 2", ev)
	}

	want := Ticket{Action: ActionRun, Member: 2, Epoch: 3, Rank: 1, Ranks: 4,
		Addr: "127.0.0.1:9999", Members: []int{0, 1, 2, 5}, Retired: []int{3}}
	if err := g.SendTicket(2, want); err != nil {
		t.Fatal(err)
	}
	got, err := sess.NextTicket(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Action != want.Action || got.Epoch != want.Epoch || got.Rank != want.Rank ||
		got.Ranks != want.Ranks || got.Addr != want.Addr || len(got.Members) != len(want.Members) {
		t.Fatalf("ticket %+v, want %+v", got, want)
	}
	for i := range want.Members {
		if got.Members[i] != want.Members[i] {
			t.Fatalf("ticket members %v, want %v", got.Members, want.Members)
		}
	}
	if len(got.Retired) != 1 || got.Retired[0] != 3 {
		t.Fatalf("ticket retired %v, want [3]", got.Retired)
	}

	if err := sess.Report(Status{Epoch: 3, OK: true, Detail: "epoch done"}); err != nil {
		t.Fatal(err)
	}
	ev = nextEvent(t, g)
	if st := ev.Status; ev.Kind != EventStatus || ev.Member != 2 ||
		st.Member != 2 || st.Epoch != 3 || !st.OK || st.Detail != "epoch done" {
		t.Fatalf("status event %+v", ev)
	}

	if err := RequestDrain(g.Addr(), 1, fp, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ev = nextEvent(t, g)
	if ev.Kind != EventDrain || ev.Member != 1 {
		t.Fatalf("drain event %+v, want a drain of member 1", ev)
	}

	// A mismatched fingerprint is refused at the door.
	var bad core.Fingerprint
	if _, err := JoinGate(g.Addr(), bad, 5*time.Second); !errors.Is(err, ErrHandshake) {
		t.Fatalf("bad-fingerprint join: %v, want ErrHandshake", err)
	}

	if err := g.SendTicket(2, Ticket{Action: ActionExit}); err != nil {
		t.Fatal(err)
	}
	exit, err := sess.NextTicket(5 * time.Second)
	if err != nil || exit.Action != ActionExit {
		t.Fatalf("exit ticket %+v, err %v", exit, err)
	}
	sess.Close()
	if ev := nextEvent(t, g); ev.Kind != EventGone || ev.Member != 2 {
		t.Fatalf("event after the member left: %+v, want member 2 gone", ev)
	}
}

// TestGateGoneFollowsStatuses drops a member's session after three status
// reports: the coordinator reads the join, the three statuses in order,
// then exactly one gone event — the loss can neither overtake a report nor
// be reported twice, even when a ticket send also trips over it.
func TestGateGoneFollowsStatuses(t *testing.T) {
	var fp core.Fingerprint
	g, err := NewGate("127.0.0.1:0", 0, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sess, err := JoinGate(g.Addr(), fp, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 3; epoch++ {
		if err := sess.Report(Status{Epoch: epoch, OK: true}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	if ev := nextEvent(t, g); ev.Kind != EventJoin || ev.Member != 0 {
		t.Fatalf("first event %+v, want the join", ev)
	}
	for epoch := 1; epoch <= 3; epoch++ {
		if ev := nextEvent(t, g); ev.Kind != EventStatus || ev.Status.Epoch != epoch {
			t.Fatalf("event %+v, want the epoch %d status", ev, epoch)
		}
	}
	if ev := nextEvent(t, g); ev.Kind != EventGone || ev.Member != 0 {
		t.Fatalf("event %+v, want member 0 gone", ev)
	}
	if err := g.SendTicket(0, Ticket{Action: ActionExit}); !errors.Is(err, ErrMemberGone) {
		t.Fatalf("ticket to a gone member: %v, want ErrMemberGone", err)
	}
	select {
	case ev := <-g.Events():
		t.Fatalf("event %+v after the gone event", ev)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestGateCloseWithUnreadEvents is the regression test for Close waiting
// forever on an admission parked in a send to a full event buffer: 65
// joins nobody reads overflow the 64-slot stream, and Close must still
// return.
func TestGateCloseWithUnreadEvents(t *testing.T) {
	var fp core.Fingerprint
	g, err := NewGate("127.0.0.1:0", 0, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 65; i++ {
		sess, err := JoinGate(g.Addr(), fp, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
	}
	closed := make(chan error, 1)
	go func() { closed <- g.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked with unread events")
	}
}

func nextEvent(t *testing.T, g *Gate) Event {
	t.Helper()
	select {
	case ev := <-g.Events():
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no membership event")
		return Event{}
	}
}
