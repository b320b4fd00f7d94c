// Run multiplexing: many logical graph runs sharing one warm transport.
//
// A one-shot execution builds a fabric, runs one graph and tears the fabric
// down. The streaming service instead keeps a single transport (in-memory
// fabric or wire mesh) resident and attaches a continuous stream of graph
// instances to it. Demux is the layer that makes that safe: every run gets
// a RunTransport view that stamps its RunID onto outgoing messages, and a
// pump goroutine per locally receivable rank routes incoming messages to
// the owning run's private mailboxes — so concurrent runs never see each
// other's traffic, and cancelling one run never disturbs the others or the
// shared transport underneath.
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Demux multiplexes many logical runs over one underlying Transport. Each
// run is opened with Open, yielding a RunTransport that implements
// Transport for that run alone: sends are stamped with the run id, and
// receives are served from per-run mailboxes fed by the demux pumps.
//
// The demux does not own the underlying transport: closing the demux stops
// routing but leaves the transport connected, and a transport-level failure
// (lost peer, cancelled fabric) is propagated to every open run.
type Demux struct {
	tr    Transport
	local []int // locally receivable ranks, pumped by this demux

	mu     sync.Mutex
	runs   map[uint64]*RunTransport
	closed bool
	failed bool // underlying transport can no longer deliver

	stray atomic.Uint64 // dropped messages addressed to unknown runs
	pumps sync.WaitGroup
}

// NewDemux wraps tr in a run demultiplexer pumping the given locally
// receivable ranks (for the in-memory fabric: every rank; for a wire
// fabric: its local rank). The pumps start immediately; the caller must not
// Recv on tr directly afterwards.
func NewDemux(tr Transport, localRanks ...int) *Demux {
	d := &Demux{
		tr:    tr,
		local: append([]int(nil), localRanks...),
		runs:  make(map[uint64]*RunTransport),
	}
	for _, r := range d.local {
		d.pumps.Add(1)
		go d.pump(r)
	}
	return d
}

// Open registers a run and returns its private transport view. The id must
// be unique among open runs and non-zero (zero marks unmultiplexed
// traffic). Open installs the run's mailboxes for every local rank before
// returning, so a message routed to the run can never precede its view —
// provided the caller opens the run before starting the rank loops that
// make its peers send.
func (d *Demux) Open(id uint64) (*RunTransport, error) {
	if id == 0 {
		return nil, fmt.Errorf("fabric: run id 0 is reserved for unmultiplexed traffic")
	}
	v := &RunTransport{d: d, id: id, boxes: make([]*Mailbox, d.tr.Ranks())}
	for _, r := range d.local {
		v.boxes[r] = NewMailbox()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("fabric: demux closed")
	}
	if _, dup := d.runs[id]; dup {
		return nil, fmt.Errorf("fabric: run %d already open", id)
	}
	d.runs[id] = v
	if d.failed {
		// The transport died before this run attached; fail it immediately
		// so its rank loops unwind instead of blocking forever.
		for _, mb := range v.boxes {
			if mb != nil {
				mb.Cancel()
			}
		}
	}
	return v, nil
}

// Release detaches a finished run: its mailboxes are cancelled (dropping
// any queued payload references) and late messages for the id are counted
// as stray and dropped. Safe to call for ids never opened.
func (d *Demux) Release(id uint64) {
	d.mu.Lock()
	v := d.runs[id]
	delete(d.runs, id)
	d.mu.Unlock()
	if v != nil {
		for _, mb := range v.boxes {
			if mb != nil {
				mb.Cancel()
			}
		}
	}
}

// Runs returns the number of currently open runs.
func (d *Demux) Runs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.runs)
}

// Stray returns how many messages addressed to unknown runs were dropped —
// late traffic from released runs, or a routing bug.
func (d *Demux) Stray() uint64 { return d.stray.Load() }

// Close stops accepting new runs and fails every open run. It does not
// cancel the underlying transport (the demux does not own it); pumps exit
// when the transport stops delivering. Idempotent.
func (d *Demux) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	views := make([]*RunTransport, 0, len(d.runs))
	for _, v := range d.runs {
		views = append(views, v)
	}
	d.runs = make(map[uint64]*RunTransport)
	d.mu.Unlock()
	for _, v := range views {
		for _, mb := range v.boxes {
			if mb != nil {
				mb.Cancel()
			}
		}
	}
}

// Wait blocks until every pump has exited — after the underlying transport
// stopped delivering (Shutdown, Cancel or failure).
func (d *Demux) Wait() { d.pumps.Wait() }

// pump drains one local rank of the underlying transport and routes each
// message to its run's mailbox. When delivery becomes impossible the pump
// propagates the end to every open run: a transport failure cancels run
// mailboxes (receivers unwind and surface Err), a clean close closes them
// (queued messages remain receivable).
func (d *Demux) pump(rank int) {
	defer d.pumps.Done()
	batch := make([]Message, 64)
	for {
		n, ok := d.tr.RecvBatch(rank, batch)
		if !ok {
			d.endRank(rank)
			return
		}
		for i := 0; i < n; i++ {
			m := batch[i]
			batch[i] = Message{}
			d.mu.Lock()
			v := d.runs[m.Run]
			d.mu.Unlock()
			if v == nil || v.boxes[rank] == nil {
				d.stray.Add(1)
				dropMessage(m)
				continue
			}
			if err := v.boxes[rank].Put(m); err != nil {
				// The run was cancelled or released concurrently; Put already
				// dropped the payload reference.
				d.stray.Add(1)
			}
		}
	}
}

// endRank ends rank's delivery for every open run, mirroring how the
// underlying transport ended: cancelled/failed transports cancel (receivers
// report !ok immediately), a cleanly closed mailbox closes (drain first).
func (d *Demux) endRank(rank int) {
	failed := d.tr.Err() != nil
	d.mu.Lock()
	if failed {
		d.failed = true
	}
	views := make([]*RunTransport, 0, len(d.runs))
	for _, v := range d.runs {
		views = append(views, v)
	}
	d.mu.Unlock()
	for _, v := range views {
		if mb := v.boxes[rank]; mb != nil {
			if failed {
				mb.Cancel()
			} else {
				mb.Close()
			}
		}
	}
}

// RunTransport is one run's private view of a multiplexed transport. It
// implements Transport: sends stamp the run id and ride the shared
// transport; receives come from the run's own mailboxes. Cancel aborts only
// this run.
type RunTransport struct {
	d     *Demux
	id    uint64
	boxes []*Mailbox // indexed by rank; non-nil only at local ranks

	cancelled atomic.Bool
	traffic   // per-run egress traffic; Snapshot reports it
}

// ID returns the run id this view stamps onto its messages.
func (v *RunTransport) ID() uint64 { return v.id }

// Ranks implements Transport.
func (v *RunTransport) Ranks() int { return v.d.tr.Ranks() }

// Send implements Transport, stamping the run id.
func (v *RunTransport) Send(m Message) error {
	if v.cancelled.Load() {
		dropMessage(m)
		return fmt.Errorf("fabric: run %d: %w", v.id, ErrClosed)
	}
	m.Run = v.id
	if err := v.d.tr.Send(m); err != nil {
		return err
	}
	v.count(m)
	return nil
}

// SendN implements Transport, stamping the run id on every message.
func (v *RunTransport) SendN(ms []Message) error {
	if v.cancelled.Load() {
		dropMessages(ms)
		return fmt.Errorf("fabric: run %d: %w", v.id, ErrClosed)
	}
	for i := range ms {
		ms[i].Run = v.id
	}
	if err := v.d.tr.SendN(ms); err != nil {
		return err
	}
	v.count(ms...)
	return nil
}

// Recv implements Transport for the run's locally receivable ranks.
func (v *RunTransport) Recv(rank int) (Message, bool) {
	return v.box(rank).Get()
}

// RecvBatch implements Transport.
func (v *RunTransport) RecvBatch(rank int, dst []Message) (int, bool) {
	return v.box(rank).GetBatch(dst)
}

func (v *RunTransport) box(rank int) *Mailbox {
	if rank < 0 || rank >= len(v.boxes) || v.boxes[rank] == nil {
		panic(fmt.Sprintf("fabric: run %d: receive on rank %d, which this demux does not pump", v.id, rank))
	}
	return v.boxes[rank]
}

// Cancel implements Transport — for this run only. The shared transport
// and every other run stay live; the run's own receivers unwind, and its
// subsequent sends fail with ErrClosed.
func (v *RunTransport) Cancel() {
	v.cancelled.Store(true)
	for _, mb := range v.boxes {
		if mb != nil {
			mb.Cancel()
		}
	}
}

// Err implements Transport: the shared transport's first failure. A
// run-level Cancel is controller-initiated and reports nil, exactly like
// the in-memory fabric.
func (v *RunTransport) Err() error { return v.d.tr.Err() }

var _ Transport = (*RunTransport)(nil)
