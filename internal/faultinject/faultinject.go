// Package faultinject wraps a fabric.Transport with deterministic fault
// injection for testing and benchmarking the fault-tolerant execution path.
// A Plan names one rank as the victim and specifies at which outbound
// message to kill it, plus optional delivery delays and duplicate delivery,
// so recovery tests reproduce exactly and can sweep the kill point across
// every message index of a workload.
//
// The wrapper injects at the Send side of the wrapped rank's transport:
// messages are counted per rank, and when the victim's count crosses
// Plan.KillAfter the transport is killed mid-batch — the prefix of the
// batch is delivered, the remainder is dropped with its payload references
// released, exactly the partial-failure shape a process crash produces.
package faultinject

import (
	"fmt"
	"sync"
	"time"

	"github.com/babelflow/babelflow-go/internal/fabric"
)

// Plan is one deterministic fault scenario.
type Plan struct {
	// KillRank is the victim rank. Negative disables the kill fault.
	KillRank int
	// KillAfter is the number of inter-rank messages the victim sends
	// successfully before its transport dies; the (KillAfter+1)-th send is
	// the one that fails. Zero kills on the first send.
	KillAfter int
	// Delay, when positive, is slept before every inter-rank send —
	// stretching the exchange window so kills land while peers still
	// communicate.
	Delay time.Duration
	// DuplicateEvery, when positive, redelivers every k-th inter-rank
	// message a second time with the same Seq, exercising receiver-side
	// deduplication. Payloads that cannot be cloned for the wire are not
	// duplicated.
	DuplicateEvery int
}

// Transport wraps an inner transport with the faults of a Plan. Each rank
// of a run gets its own wrapper (sharing nothing), so the message counter
// is per rank and the kill point is deterministic regardless of scheduling.
type Transport struct {
	fabric.Transport
	rank int
	plan Plan

	mu     sync.Mutex
	sent   int
	killed bool
	kerr   error
}

// Wrap returns rank's view of the transport with plan's faults armed.
func Wrap(tr fabric.Transport, rank int, plan Plan) *Transport {
	return &Transport{Transport: tr, rank: rank, plan: plan}
}

// Killed reports whether this wrapper has killed its inner transport.
func (t *Transport) Killed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.killed
}

// Send applies the plan to one message.
func (t *Transport) Send(m fabric.Message) error {
	return t.SendN([]fabric.Message{m})
}

// SendN applies the plan to a batch: inter-rank messages are counted on the
// wrapper's running counter, so the kill point and the duplicated messages do
// not depend on how sends are batched. If the victim's counter crosses
// KillAfter inside the batch, the prefix before the crossing message (and its
// duplicates) is delivered, the inner transport is killed, and the remaining
// payload references are released.
func (t *Transport) SendN(ms []fabric.Message) error {
	if len(ms) == 0 {
		return nil
	}
	victim := t.plan.KillRank >= 0 && t.rank == t.plan.KillRank

	t.mu.Lock()
	if t.killed {
		err := t.kerr
		t.mu.Unlock()
		releaseAll(ms)
		return err
	}
	// Count only inter-rank messages — local loopback delivery does not
	// touch the network a crash would sever. Duplicates keep the original
	// Seq so receivers can recognize them.
	killAt := -1
	var dup []fabric.Message
	for i := range ms {
		if ms[i].From == ms[i].To {
			continue
		}
		if victim && t.sent == t.plan.KillAfter {
			killAt = i
			break
		}
		t.sent++
		if k := t.plan.DuplicateEvery; k > 0 && t.sent%k == 0 {
			if cp, err := ms[i].Payload.CloneForWire(); err == nil {
				d := ms[i]
				d.Payload = cp
				dup = append(dup, d)
			}
		}
	}
	if killAt >= 0 {
		t.killed = true
		t.kerr = fmt.Errorf("faultinject: rank %d killed after %d message(s): %w",
			t.rank, t.plan.KillAfter, fabric.ErrPeerLost)
	}
	err := t.kerr
	t.mu.Unlock()

	if t.plan.Delay > 0 {
		time.Sleep(t.plan.Delay)
	}

	// Deliver what made it out before a crash, then sever.
	out := ms
	if killAt >= 0 {
		out = ms[:killAt]
		releaseAll(ms[killAt:])
	}
	if len(out) > 0 {
		if serr := t.Transport.SendN(out); serr != nil {
			releaseAll(dup)
			return serr
		}
	}
	if len(dup) > 0 {
		if serr := t.Transport.SendN(dup); serr != nil {
			return serr
		}
	}
	if killAt >= 0 {
		kill(t.Transport)
	}
	return err
}

// Err surfaces the injected failure once the kill fired, else defers to the
// inner transport.
func (t *Transport) Err() error {
	t.mu.Lock()
	if t.killed {
		err := t.kerr
		t.mu.Unlock()
		return err
	}
	t.mu.Unlock()
	return t.Transport.Err()
}

// LostPeers implements fabric.LossReporter: a killed wrapper reports its
// own rank as lost (the authoritative self-report the recovery coordinator
// trusts), merged with whatever the inner transport observed.
func (t *Transport) LostPeers() []int {
	var lost []int
	t.mu.Lock()
	if t.killed {
		lost = append(lost, t.rank)
	}
	t.mu.Unlock()
	if lr, ok := t.Transport.(fabric.LossReporter); ok {
		for _, r := range lr.LostPeers() {
			if len(lost) == 0 || lost[0] != r {
				lost = append(lost, r)
			}
		}
	}
	return lost
}

func releaseAll(ms []fabric.Message) {
	for i := range ms {
		ms[i].Payload.Release()
	}
}

// kill severs the inner transport the hardest way it supports: Kill when
// offered (the TCP fabric's abrupt teardown), otherwise Cancel.
func kill(tr fabric.Transport) {
	if k, ok := tr.(interface{ Kill() }); ok {
		k.Kill()
		return
	}
	tr.Cancel()
}

var _ fabric.Transport = (*Transport)(nil)
var _ fabric.LossReporter = (*Transport)(nil)
