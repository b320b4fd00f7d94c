package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/render"
	"github.com/babelflow/babelflow-go/internal/trace"
)

// Everything in this file measures a layer from outside it: by wrapping
// what the public API lets a caller pass in (callbacks, a transport, an
// observer). Spans inside the program are a later change.

// meter decorates a transport: it counts the messages and bytes that cross
// ranks, the time callers spend inside Send/SendN, and the time rank loops
// spend blocked in Recv/RecvBatch. With a span log attached it also records
// one span per call.
type meter struct {
	fabric.Transport
	msgs, bytes      atomic.Int64
	sendNs, recvWait atomic.Int64
	log              *spanLog // nil: aggregate only
}

func (m *meter) count(ms ...fabric.Message) {
	for i := range ms {
		if ms[i].From != ms[i].To {
			m.msgs.Add(1)
			m.bytes.Add(int64(len(ms[i].Payload.Data)))
		}
	}
}

func (m *meter) Send(msg fabric.Message) error {
	m.count(msg)
	src := msg.Src
	start := time.Now()
	err := m.Transport.Send(msg)
	m.sent(src, start)
	return err
}

func (m *meter) SendN(ms []fabric.Message) error {
	if len(ms) == 0 {
		return m.Transport.SendN(ms)
	}
	m.count(ms...)
	src := ms[0].Src
	start := time.Now()
	err := m.Transport.SendN(ms)
	m.sent(src, start)
	return err
}

func (m *meter) sent(src core.TaskId, start time.Time) {
	end := time.Now()
	m.sendNs.Add(int64(end.Sub(start)))
	if m.log != nil {
		m.log.send(src, start, end)
	}
}

func (m *meter) Recv(rank int) (fabric.Message, bool) {
	start := time.Now()
	msg, ok := m.Transport.Recv(rank)
	m.received(rank, start)
	return msg, ok
}

func (m *meter) RecvBatch(rank int, dst []fabric.Message) (int, bool) {
	start := time.Now()
	n, ok := m.Transport.RecvBatch(rank, dst)
	m.received(rank, start)
	return n, ok
}

func (m *meter) received(rank int, start time.Time) {
	end := time.Now()
	m.recvWait.Add(int64(end.Sub(start)))
	if m.log != nil {
		m.log.recvWait(rank, start, end)
	}
}

// traffic is what one or more meters saw during one run.
type traffic struct {
	msgs, bytes      float64
	sendS, recvWaitS float64
}

func trafficOf(ms ...*meter) traffic {
	var t traffic
	for _, m := range ms {
		t.msgs += float64(m.msgs.Load())
		t.bytes += float64(m.bytes.Load())
		t.sendS += time.Duration(m.sendNs.Load()).Seconds()
		t.recvWaitS += time.Duration(m.recvWait.Load()).Seconds()
	}
	return t
}

// span is one interval of the written trace. Parent is the id of the span
// that caused it (0 for the root); all spans of one run share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the spans of the traced pass in memory; they are written
// when the benchmark ends. Times are relative to the log's creation.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span

	// The run being recorded: sends and receive waits arrive from the
	// transport decorator without knowing their run, so they are parked
	// here and attached when the run closes.
	sends []pending
	waits []pending
}

type pending struct {
	key        int64 // source task of a send, rank of a receive wait
	start, end time.Time
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(parent, run int, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	return id
}

func (l *spanLog) send(src core.TaskId, start, end time.Time) {
	l.mu.Lock()
	l.sends = append(l.sends, pending{int64(src), start, end})
	l.mu.Unlock()
}

func (l *spanLog) recvWait(rank int, start, end time.Time) {
	l.mu.Lock()
	l.waits = append(l.waits, pending{int64(rank), start, end})
	l.mu.Unlock()
}

// takePending hands over the parked transport intervals of the finished
// run.
func (l *spanLog) takePending() (sends, waits []pending) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sends, waits = l.sends, l.waits
	l.sends, l.waits = nil, nil
	return
}

// selfTimes returns, per span id, the span's duration minus the part of
// that interval its direct children cover (children may overlap each other;
// covered time is counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered int64
		at := s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], at), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByKind sums self time over spans of one kind: the span's name up to
// its first space ("task", "callback", "send", "recv-wait", "setup.graph").
// A task's self time is its queue wait plus the routing of its outputs; a
// rank's is the time no task of that rank was queued or running.
func selfByKind(spans []span) map[string]int64 {
	self := selfTimes(spans)
	byKind := make(map[string]int64)
	for _, s := range spans {
		kind, _, _ := strings.Cut(s.Name, " ")
		byKind[kind] += self[s.ID]
	}
	return byKind
}

// occupancy splits the worker time of one run, workers x (end - start),
// three ways by sweeping the task spans: busy is time inside callbacks;
// idleReady is time a worker was outside a callback while a ready task sat
// in the dispatch queue (dispatch, routing, serialisation, sends: runtime
// overhead); idleStarved is time a worker was outside a callback and no
// task was ready (waiting on messages or on the shape of the graph).
// busy + idleReady + idleStarved = workers x (end - start).
func occupancy(spans []trace.Span, workers int, start, end time.Time) (busy, idleReady, idleStarved time.Duration) {
	type event struct {
		at           time.Time
		queued, runs int
	}
	evs := make([]event, 0, 3*len(spans))
	for _, s := range spans {
		evs = append(evs,
			event{s.Start.Add(-s.QueueWait), +1, 0},
			event{s.Start, -1, +1},
			event{s.End, 0, -1})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at.Before(evs[j].at) })
	queued, running := 0, 0
	at := start
	account := func(until time.Time) {
		if until.After(end) {
			until = end
		}
		d := until.Sub(at)
		if d <= 0 {
			return
		}
		at = until
		free := max(workers-running, 0)
		ready := min(free, queued)
		busy += time.Duration(min(running, workers)) * d
		idleReady += time.Duration(ready) * d
		idleStarved += time.Duration(free-ready) * d
	}
	for _, e := range evs {
		account(e.at)
		queued += e.queued
		running += e.runs
	}
	account(end)
	return
}

// serdeProbe times the serialised form of callback outputs. It runs inside
// the callback wrapper of one designated run per traced pass (payloads must
// not be touched after the callback hands them over), and that run is kept
// out of the timing statistics.
type serdeProbe struct {
	mu           sync.Mutex
	bytes        int64
	serNs, desNs int64
}

func (p *serdeProbe) observe(out []core.Payload) {
	for _, o := range out {
		s, ok := o.Object.(core.Serializable)
		if !ok {
			continue // already a wire buffer: nothing to (de)serialise
		}
		t0 := time.Now()
		wire := s.Serialize()
		t1 := time.Now()
		switch o.Object.(type) {
		case *mergetree.Tree:
			_, _ = mergetree.Deserialize(wire)
		case mergetree.Segmentation:
			_, _ = mergetree.DeserializeSegmentation(wire)
		case *render.Image:
			_, _ = render.DeserializeImage(wire)
		case *data.Field:
			_, _ = data.DeserializeField(wire)
		default:
			continue
		}
		t2 := time.Now()
		p.mu.Lock()
		p.bytes += int64(len(wire))
		p.serNs += int64(t1.Sub(t0))
		p.desNs += int64(t2.Sub(t1))
		p.mu.Unlock()
	}
}

// wrapping is a CallbackRegistrar that interposes the trace recorder (and,
// on the probe run, the serde probe) on every callback it registers.
type wrapping struct {
	core.CallbackRegistrar
	rec   *trace.Recorder
	probe *serdeProbe // nil except on the probe run
}

func (w wrapping) RegisterCallback(cb core.CallbackId, fn core.Callback) error {
	inner := fn
	if w.probe != nil {
		inner = func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
			out, err := fn(in, id)
			if err == nil {
				w.probe.observe(out)
			}
			return out, err
		}
	}
	return w.CallbackRegistrar.RegisterCallback(cb, w.rec.Wrap(cb, inner))
}
