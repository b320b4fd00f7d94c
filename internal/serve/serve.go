// Package serve is the long-lived streaming dataflow service behind
// bfserve. One mpi.Service keeps a rank fabric, a warm worker pool and a
// journal root resident; this package adds the multi-tenant front: an
// admission queue with bounded depth and typed load-shedding, a dispatcher
// that starts each queued run as soon as an execution slot is free,
// per-run lifecycle records (queued → running → done/failed/
// cancelled) with queue-wait/makespan/journal metrics, and aggregate
// service counters with latency percentiles.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/mpi"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when the admission
// queue is full: the service sheds the submission instead of queueing
// unboundedly. Callers should back off and retry.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrClosed is returned for submissions after Close began.
var ErrClosed = errors.New("serve: server closed")

// ErrUnknownProgram is wrapped when a submission names no registered program.
var ErrUnknownProgram = errors.New("serve: unknown program")

// ErrUnknownRun is wrapped when a status, wait or cancel names no run the
// server still remembers.
var ErrUnknownRun = errors.New("serve: unknown run")

// ErrDraining is the service-layer drain error (mapped to HTTP 429 with
// Retry-After): a submission pinned to a rank that is being retired, or a
// drain request that would empty the fabric. Aliased so HTTP handlers and
// embedders can errors.Is against the serve package alone.
var ErrDraining = mpi.ErrDraining

// State is a run's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Config sizes a Server. The zero value is usable: every field has a
// default.
type Config struct {
	// Ranks is the warm fabric's logical rank count (default 4).
	Ranks int
	// Workers sizes the shared executor pool (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the runs waiting in the admission queue; a full
	// queue sheds with ErrOverloaded (default 256). The dispatcher holds at
	// most one more run, taken off the queue, while it waits for a slot.
	QueueDepth int
	// MaxInflight bounds concurrently executing runs; the dispatcher blocks
	// (backpressure into the queue) once the bound is reached (default =
	// Ranks).
	MaxInflight int
	// History bounds how many finished run records the server retains for
	// status queries (default 1024). Live runs are never evicted.
	History int
	// Journal, when set, roots per-run journal directories.
	Journal string
	// Registry names the programs the server will execute (default
	// DefaultRegistry()).
	Registry *Registry
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = c.Ranks
	}
	if c.History <= 0 {
		c.History = 1024
	}
	if c.Registry == nil {
		c.Registry = DefaultRegistry()
	}
	return c
}

// RunStatus is an immutable snapshot of one run's record.
type RunStatus struct {
	ID        uint64    `json:"id"`
	Program   string    `json:"program"`
	Params    Params    `json:"params,omitempty"`
	State     State     `json:"state"`
	Digest    string    `json:"digest,omitempty"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	// QueueWaitMs is submission-to-start latency; zero until the run starts.
	QueueWaitMs float64 `json:"queue_wait_ms"`
	// MakespanMs is start-to-finish latency; zero until the run finishes.
	MakespanMs float64 `json:"makespan_ms"`
	// Journal carries the run's replay counters on journaled services.
	Journal mpi.JournalStats `json:"journal"`
}

// Metrics is an aggregate snapshot of the server.
type Metrics struct {
	Accepted  uint64 `json:"accepted"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// QueueDepth is the number of submissions waiting for dispatch.
	QueueDepth int `json:"queue_depth"`
	// Inflight is the number of currently executing runs.
	Inflight int `json:"inflight"`
	// QueueWaitP50Ms/P99Ms are percentiles over recent runs' queue waits.
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	// MakespanP50Ms/P99Ms are percentiles over recent runs' makespans.
	MakespanP50Ms float64 `json:"makespan_p50_ms"`
	MakespanP99Ms float64 `json:"makespan_p99_ms"`
	// StrayFrames counts messages the run demultiplexer dropped because
	// they addressed an unknown or released run — late arrivals racing a
	// cancel. A steadily climbing value under normal load is a bug signal.
	StrayFrames uint64 `json:"stray_frames"`
	// DrainingRanks lists ranks currently marked draining (sorted).
	DrainingRanks []int `json:"draining_ranks"`
	// DrainFences is the number of drain fences still in flight: drains
	// whose rank has not yet quiesced. Healthz reports "degraded" while
	// this is non-zero.
	DrainFences int `json:"drain_fences_inflight"`
	// Drains counts completed drain fences since startup.
	Drains uint64 `json:"drains"`
	// DrainLatencyMs is the most recent drain's fence latency: Drain()
	// accepted to last in-flight run off the rank.
	DrainLatencyMs float64 `json:"drain_latency_ms"`
	// HandoffRuns/HandoffTasks count submissions (and the tasks inside
	// them) the placement layer moved off draining ranks at admission.
	HandoffRuns  uint64 `json:"handoff_runs"`
	HandoffTasks uint64 `json:"handoff_tasks"`
}

// run is the mutable server-side record.
type run struct {
	id        uint64
	program   string
	params    Params
	submitted time.Time
	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{}

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	digest   string
	errText  string
	journal  mpi.JournalStats
}

func (r *run) snapshot() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID:        r.id,
		Program:   r.program,
		Params:    r.params,
		State:     r.state,
		Digest:    r.digest,
		Error:     r.errText,
		Submitted: r.submitted,
		Journal:   r.journal,
	}
	if !r.started.IsZero() {
		st.QueueWaitMs = float64(r.started.Sub(r.submitted)) / float64(time.Millisecond)
	}
	if !r.finished.IsZero() && !r.started.IsZero() {
		st.MakespanMs = float64(r.finished.Sub(r.started)) / float64(time.Millisecond)
	}
	return st
}

// Server multiplexes program submissions over one warm mpi.Service.
type Server struct {
	cfg   Config
	reg   *Registry
	svc   *mpi.Service
	queue chan *run
	sem   chan struct{} // MaxInflight execution slots

	next    atomic.Uint64
	started time.Time
	fences  atomic.Int32 // drain fences in flight (rank marked, not yet idle)

	dispatchWG sync.WaitGroup
	execWG     sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	runs      map[uint64]*run
	order     []uint64 // insertion order, for history eviction
	accepted  uint64
	shed      uint64
	completed uint64
	failed    uint64
	cancelled uint64
	drains    uint64
	drainMs   float64
	queueWait sampleRing
	makespan  sampleRing
}

// NewServer builds the service and starts its dispatcher.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	svc, err := mpi.NewService(cfg.Ranks, mpi.WithWorkers(cfg.Workers), mpi.WithJournal(cfg.Journal))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		svc:     svc,
		queue:   make(chan *run, cfg.QueueDepth),
		sem:     make(chan struct{}, cfg.MaxInflight),
		started: time.Now(),
		runs:    make(map[uint64]*run),
	}
	s.queueWait.init(1024)
	s.makespan.init(1024)
	s.dispatchWG.Add(1)
	go s.dispatch()
	return s, nil
}

// Registry exposes the server's program set (for the control plane).
func (s *Server) Registry() *Registry { return s.reg }

// Ranks returns the warm fabric's rank count.
func (s *Server) Ranks() int { return s.svc.Ranks() }

// Uptime is the time since the server started.
func (s *Server) Uptime() time.Duration { return time.Since(s.started) }

// Drain marks a rank for graceful retirement. New submissions avoid it
// immediately (pinned submissions are shed with ErrDraining, unpinned ones
// are remapped onto the healthy ranks); runs already holding tasks on the
// rank finish normally. The drain fence stays in flight — and /healthz
// reports "degraded" — until the rank's last in-flight run completes, at
// which point the fence latency lands in Metrics.DrainLatencyMs.
func (s *Server) Drain(rank int) error {
	if err := s.svc.Drain(rank); err != nil {
		return err
	}
	start := time.Now()
	s.fences.Add(1)
	go func() {
		defer s.fences.Add(-1)
		for s.svc.RankActive(rank) > 0 {
			time.Sleep(2 * time.Millisecond)
		}
		s.mu.Lock()
		s.drains++
		s.drainMs = float64(time.Since(start)) / float64(time.Millisecond)
		s.mu.Unlock()
	}()
	return nil
}

// Undrain returns a previously drained rank to service.
func (s *Server) Undrain(rank int) error { return s.svc.Undrain(rank) }

// Fencing reports whether any drain fence is still in flight — a drained
// rank that has not yet quiesced.
func (s *Server) Fencing() bool { return s.fences.Load() > 0 }

// Draining lists the ranks currently marked draining.
func (s *Server) Draining() []int { return s.svc.Draining() }

// Submit admits one run of the named program. It never blocks on execution:
// the run is queued (its returned status is StateQueued) or shed with
// ErrOverloaded when the admission queue is full. A "pin" param places
// every task of the run on that rank; pinning to a draining rank is shed
// with ErrDraining (HTTP 429 + Retry-After) instead of queueing work the
// fence would strand.
func (s *Server) Submit(program string, p Params) (RunStatus, error) {
	if _, ok := s.reg.Lookup(program); !ok {
		return RunStatus{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownProgram, program, s.reg.Names())
	}
	if pin, ok := p["pin"]; ok {
		if pin < 0 || pin >= s.svc.Ranks() {
			return RunStatus{}, fmt.Errorf("serve: pin rank %d outside fabric [0,%d)", pin, s.svc.Ranks())
		}
		for _, d := range s.svc.Draining() {
			if d == pin {
				return RunStatus{}, fmt.Errorf("serve: submission pinned to rank %d: %w", pin, ErrDraining)
			}
		}
	}
	r := &run{
		id:        s.next.Add(1),
		program:   program,
		params:    p,
		submitted: time.Now(),
		done:      make(chan struct{}),
		state:     StateQueued,
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		r.cancel()
		return RunStatus{}, ErrClosed
	}
	select {
	case s.queue <- r:
		s.runs[r.id] = r
		s.order = append(s.order, r.id)
		s.evictLocked()
		s.accepted++
		s.mu.Unlock()
		return r.snapshot(), nil
	default:
		s.shed++
		s.mu.Unlock()
		r.cancel()
		return RunStatus{}, fmt.Errorf("serve: queue at depth %d: %w", s.cfg.QueueDepth, ErrOverloaded)
	}
}

// evictLocked drops the oldest finished records beyond the history bound.
// Live runs are never evicted, so the map can transiently exceed History
// under a deep backlog.
func (s *Server) evictLocked() {
	for len(s.order) > s.cfg.History {
		evicted := false
		for i, id := range s.order {
			r := s.runs[id]
			r.mu.Lock()
			final := r.state.terminal()
			r.mu.Unlock()
			if final {
				delete(s.runs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// dispatch is the admission loop: it takes one queued run at a time, waits
// for a MaxInflight slot and starts the run on the warm fabric. Acquiring
// the slot here (not in the run's goroutine) is the backpressure bound: a
// saturated service parks the dispatcher, the queue fills, and Submit
// sheds with ErrOverloaded.
func (s *Server) dispatch() {
	defer s.dispatchWG.Done()
	for r := range s.queue {
		s.sem <- struct{}{}
		s.execWG.Add(1)
		go func() {
			defer s.execWG.Done()
			defer func() { <-s.sem }()
			s.execute(r)
		}()
	}
}

// execute runs one admitted submission to completion.
func (s *Server) execute(r *run) {
	start := time.Now()
	r.mu.Lock()
	if r.state != StateQueued { // cancelled while queued
		r.mu.Unlock()
		return
	}
	r.state = StateRunning
	r.started = start
	r.mu.Unlock()

	sub, err := s.reg.Build(r.program, r.params)
	if err != nil {
		s.finish(r, "", mpi.JournalStats{}, err)
		return
	}
	if pin, ok := r.params["pin"]; ok && sub.Map == nil {
		// Explicit placement: every task on the pinned rank. A rank that
		// started draining between admission and here fails the run with
		// ErrDraining — the submission raced the fence and lost.
		ids := sub.Graph.TaskIds()
		sub.Map = core.NewFuncMap(s.svc.Ranks(), ids, func(core.TaskId) core.ShardId {
			return core.ShardId(pin)
		})
	}
	out, js, err := s.svc.Submit(r.ctx, sub)
	if err != nil {
		s.finish(r, "", js, err)
		return
	}
	digest, derr := SinkDigest(out)
	releaseSinks(out)
	s.finish(r, digest, js, derr)
}

// finish moves a run to its terminal state and folds its latencies into the
// aggregate metrics.
func (s *Server) finish(r *run, digest string, js mpi.JournalStats, err error) {
	now := time.Now()
	r.mu.Lock()
	r.finished = now
	r.digest = digest
	r.journal = js
	switch {
	case err == nil:
		r.state = StateDone
	case errors.Is(err, core.ErrCancelled) || r.ctx.Err() != nil:
		r.state = StateCancelled
		r.errText = err.Error()
	default:
		r.state = StateFailed
		r.errText = err.Error()
	}
	state := r.state
	wait, span := r.started.Sub(r.submitted), now.Sub(r.started)
	r.mu.Unlock()

	// Count the run before releasing its waiters, so Metrics read after
	// Wait returns includes it.
	s.mu.Lock()
	switch state {
	case StateDone:
		s.completed++
	case StateCancelled:
		s.cancelled++
	default:
		s.failed++
	}
	s.queueWait.add(wait)
	s.makespan.add(span)
	s.mu.Unlock()
	close(r.done)
	r.cancel()
}

// Get returns the run's current status.
func (s *Server) Get(id uint64) (RunStatus, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return RunStatus{}, fmt.Errorf("%w: %d", ErrUnknownRun, id)
	}
	return r.snapshot(), nil
}

// Wait blocks until the run reaches a terminal state (or ctx ends) and
// returns its final status.
func (s *Server) Wait(ctx context.Context, id uint64) (RunStatus, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return RunStatus{}, fmt.Errorf("%w: %d", ErrUnknownRun, id)
	}
	select {
	case <-r.done:
		return r.snapshot(), nil
	case <-ctx.Done():
		return r.snapshot(), ctx.Err()
	}
}

// Cancel aborts a run: a queued run finishes immediately as cancelled, a
// running run's context is cancelled (the fabric view unblocks and the run
// lands in StateCancelled). Cancelling a finished run is a no-op.
func (s *Server) Cancel(id uint64) (RunStatus, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return RunStatus{}, fmt.Errorf("%w: %d", ErrUnknownRun, id)
	}
	r.mu.Lock()
	if r.state == StateQueued {
		r.state = StateCancelled
		r.finished = time.Now()
		r.mu.Unlock()
		r.cancel()
		s.mu.Lock()
		s.cancelled++
		s.mu.Unlock()
		close(r.done)
		return r.snapshot(), nil
	}
	r.mu.Unlock()
	r.cancel() // running: execute() observes the context and finishes the record
	return r.snapshot(), nil
}

// Runs snapshots every remembered run, newest first.
func (s *Server) Runs() []RunStatus {
	s.mu.Lock()
	rs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		rs = append(rs, s.runs[id])
	}
	s.mu.Unlock()
	out := make([]RunStatus, 0, len(rs))
	for i := len(rs) - 1; i >= 0; i-- {
		out = append(out, rs[i].snapshot())
	}
	return out
}

// Metrics snapshots the aggregate counters and latency percentiles.
func (s *Server) Metrics() Metrics {
	hr, ht := s.svc.HandoffCounts()
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Metrics{
		Accepted:       s.accepted,
		Shed:           s.shed,
		Completed:      s.completed,
		Failed:         s.failed,
		Cancelled:      s.cancelled,
		QueueDepth:     len(s.queue),
		Inflight:       len(s.sem),
		QueueWaitP50Ms: ms(s.queueWait.percentile(0.50)),
		QueueWaitP99Ms: ms(s.queueWait.percentile(0.99)),
		MakespanP50Ms:  ms(s.makespan.percentile(0.50)),
		MakespanP99Ms:  ms(s.makespan.percentile(0.99)),
		StrayFrames:    s.svc.Stray(),
		DrainingRanks:  s.svc.Draining(),
		DrainFences:    int(s.fences.Load()),
		Drains:         s.drains,
		DrainLatencyMs: s.drainMs,
		HandoffRuns:    hr,
		HandoffTasks:   ht,
	}
}

// Close drains the server: no new submissions are admitted, already queued
// runs still execute, then the warm service shuts down. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// All sends happen under mu with closed checked, so no send can race
	// this close.
	close(s.queue)
	s.dispatchWG.Wait()
	s.execWG.Wait()
	return s.svc.Close()
}

// sampleRing keeps the last cap latency samples for percentile estimates.
type sampleRing struct {
	buf []time.Duration
	idx int
	n   int
}

func (r *sampleRing) init(capacity int) { r.buf = make([]time.Duration, capacity) }

func (r *sampleRing) add(d time.Duration) {
	r.buf[r.idx] = d
	r.idx = (r.idx + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// percentile returns the p-quantile (0 < p <= 1) of the retained samples,
// or zero when empty.
func (r *sampleRing) percentile(p float64) time.Duration {
	if r.n == 0 {
		return 0
	}
	tmp := make([]time.Duration, r.n)
	copy(tmp, r.buf[:r.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(p*float64(r.n)) - 1
	if i < 0 {
		i = 0
	}
	if i >= r.n {
		i = r.n - 1
	}
	return tmp[i]
}
