// Package trace records per-task execution spans of a dataflow run and
// derives the comparison metrics the paper uses BabelFlow as a test bed
// for: per-shard busy time and utilization, per-task-type cost breakdowns,
// and the measured critical path of the executed graph. Since the framework
// guarantees the same tasks execute on every runtime, traces of different
// controllers are directly comparable.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Span is one task execution: wall-clock start and end of the callback, the
// shard that ran it, and its scheduling context — how long the ready task
// waited in the dispatch queue, and how far off the graph's critical path
// it sits.
type Span struct {
	Task     core.TaskId
	Callback core.CallbackId
	Shard    core.ShardId
	Start    time.Time
	End      time.Time
	// QueueWait is the time between the task becoming ready (entering the
	// dispatch queue) and a worker picking it up. Zero for controllers
	// without a queue (serial, inline) or without a SchedObserver hookup.
	QueueWait time.Duration
	// Slack is the task's critical-path slack in levels (0 = on a critical
	// path). Filled by AnnotateSlack; zero until then.
	Slack int
	// Attempt is the execution attempt that produced this span: 1 for the
	// first run, higher after fault-tolerant re-execution, 0 when the output
	// was replayed from a lineage ledger (no callback ran).
	Attempt int
	// Replayed marks spans whose outputs came from a lineage ledger during
	// recovery instead of a callback execution.
	Replayed bool
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Recorder collects spans. Wrap the callbacks before registering them and
// pass the recorder as the controller's Observer so spans learn their
// shard. Safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	spans    map[core.TaskId]*Span
	order    []core.TaskId
	shards   map[core.TaskId]core.ShardId
	queued   map[core.TaskId]time.Duration
	attempts map[core.TaskId]int
	replays  []Span
	epochs   []RecoveryEvent
}

// RecoveryEvent is one recovery epoch boundary observed by the recorder.
type RecoveryEvent struct {
	// Epoch is the attempt number the run moved to (2 = first retry).
	Epoch int
	// Lost lists the shards declared dead before this epoch.
	Lost []core.ShardId
	// At is when recovery started.
	At time.Time
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		spans:    make(map[core.TaskId]*Span),
		shards:   make(map[core.TaskId]core.ShardId),
		queued:   make(map[core.TaskId]time.Duration),
		attempts: make(map[core.TaskId]int),
	}
}

// Wrap instruments a callback: each execution records its span under the
// given callback id.
func (r *Recorder) Wrap(cb core.CallbackId, fn core.Callback) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		start := time.Now()
		out, err := fn(in, id)
		end := time.Now()
		if err == nil {
			r.mu.Lock()
			r.attempts[id]++
			r.spans[id] = &Span{Task: id, Callback: cb, Shard: r.shards[id], Start: start, End: end, QueueWait: r.queued[id], Attempt: r.attempts[id]}
			r.order = append(r.order, id)
			r.mu.Unlock()
		}
		return out, err
	}
}

// TaskExecuted implements core.Observer: it attaches the executing shard to
// the task's span (controllers notify after the callback returns).
func (r *Recorder) TaskExecuted(id core.TaskId, shard core.ShardId, cb core.CallbackId) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shards[id] = shard
	if s, ok := r.spans[id]; ok {
		s.Shard = shard
	}
}

// TaskQueued implements core.SchedObserver: scheduling controllers report
// when a ready task entered the dispatch queue and when a worker picked it
// up; the difference becomes the task span's QueueWait. Controllers call it
// just before the callback runs, so the wait is recorded by the time Wrap
// stores the span.
func (r *Recorder) TaskQueued(id core.TaskId, enqueued, started time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queued[id] = started.Sub(enqueued)
	if s, ok := r.spans[id]; ok {
		s.QueueWait = r.queued[id]
	}
}

// TaskReplayed implements core.ReplayObserver: during recovery, a task
// whose outputs were re-emitted from a lineage ledger records a zero-length
// span marked Replayed instead of a measured execution.
func (r *Recorder) TaskReplayed(id core.TaskId, shard core.ShardId, cb core.CallbackId) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replays = append(r.replays, Span{Task: id, Callback: cb, Shard: shard, Start: now, End: now, Replayed: true})
}

// RecoveryStarted implements core.RecoveryObserver: the fault-tolerant
// coordinator reports each retry epoch and the shards it lost.
func (r *Recorder) RecoveryStarted(epoch int, lost []core.ShardId) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epochs = append(r.epochs, RecoveryEvent{Epoch: epoch, Lost: append([]core.ShardId(nil), lost...), At: time.Now()})
}

// Recoveries returns the recovery epoch boundaries observed, in order.
func (r *Recorder) Recoveries() []RecoveryEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RecoveryEvent(nil), r.epochs...)
}

// Replays returns the replayed-task spans recorded during recovery.
func (r *Recorder) Replays() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.replays...)
}

// Spans returns the recorded spans sorted by start time.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Task < out[j].Task
	})
	return out
}

// Reset clears the recorder for reuse between runs.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = make(map[core.TaskId]*Span)
	r.order = nil
	r.shards = make(map[core.TaskId]core.ShardId)
	r.queued = make(map[core.TaskId]time.Duration)
	r.attempts = make(map[core.TaskId]int)
	r.replays = nil
	r.epochs = nil
}

// AnnotateSlack fills each span's Slack field from the compiled graph's
// critical-path annotation: 0 means the task lies on a critical path, larger values mean
// the task could be delayed that many levels without stretching the
// makespan. Queue wait on zero-slack spans is schedule-induced makespan
// loss; queue wait on high-slack spans is harmless.
func AnnotateSlack(g core.TaskGraph, spans []Span) error {
	cp, err := core.Compile(g)
	if err != nil {
		return err
	}
	for i := range spans {
		spans[i].Slack = cp.Slack(spans[i].Task)
	}
	return nil
}

// Summary aggregates a trace.
type Summary struct {
	// Tasks is the number of recorded executions.
	Tasks int
	// Wall is the span from the first task start to the last task end.
	Wall time.Duration
	// Busy is the summed task duration per shard.
	Busy map[core.ShardId]time.Duration
	// ByCallback is the summed task duration per task type.
	ByCallback map[core.CallbackId]time.Duration
	// CriticalPath is the longest dependency chain of measured durations
	// (a lower bound on any schedule of this execution's costs).
	CriticalPath time.Duration
	// QueueWait is the summed time tasks spent ready-but-waiting in the
	// dispatch queue.
	QueueWait time.Duration
	// CriticalQueueWait is the queue wait summed over zero-slack tasks only
	// — the portion of QueueWait that directly stretches the makespan, the
	// quantity the priority scheduler drives down.
	CriticalQueueWait time.Duration
}

// Utilization returns busy/(wall*shards) over the shards that ran tasks.
// Values above 1 indicate intra-shard parallelism: the MPI controller's
// thread pool overlaps several tasks per rank (up to its Workers setting).
func (s Summary) Utilization() float64 {
	if s.Wall <= 0 || len(s.Busy) == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range s.Busy {
		busy += b
	}
	return float64(busy) / (float64(s.Wall) * float64(len(s.Busy)))
}

// Summarize computes the aggregate metrics of a trace against the graph it
// executed.
func Summarize(g core.TaskGraph, spans []Span) (Summary, error) {
	sum := Summary{
		Busy:       make(map[core.ShardId]time.Duration),
		ByCallback: make(map[core.CallbackId]time.Duration),
	}
	if len(spans) == 0 {
		return sum, nil
	}
	cp, err := core.Compile(g)
	if err != nil {
		return Summary{}, err
	}
	byTask := make(map[core.TaskId]Span, len(spans))
	first, last := spans[0].Start, spans[0].End
	for _, s := range spans {
		byTask[s.Task] = s
		sum.Tasks++
		sum.Busy[s.Shard] += s.Duration()
		sum.ByCallback[s.Callback] += s.Duration()
		sum.QueueWait += s.QueueWait
		if cp.Slack(s.Task) == 0 {
			sum.CriticalQueueWait += s.QueueWait
		}
		if s.Start.Before(first) {
			first = s.Start
		}
		if s.End.After(last) {
			last = s.End
		}
	}
	sum.Wall = last.Sub(first)

	// Critical path: longest chain of measured durations through the
	// dependency graph.
	memo := make(map[core.TaskId]time.Duration)
	var longest func(id core.TaskId) (time.Duration, error)
	longest = func(id core.TaskId) (time.Duration, error) {
		if d, ok := memo[id]; ok {
			return d, nil
		}
		t, ok := cp.Task(id)
		if !ok {
			return 0, fmt.Errorf("trace: span for unknown task %d", id)
		}
		var best time.Duration
		for _, p := range t.Producers() {
			d, err := longest(p)
			if err != nil {
				return 0, err
			}
			if d > best {
				best = d
			}
		}
		d := best + byTask[id].Duration()
		memo[id] = d
		return d, nil
	}
	for id := range byTask {
		d, err := longest(id)
		if err != nil {
			return Summary{}, err
		}
		if d > sum.CriticalPath {
			sum.CriticalPath = d
		}
	}
	return sum, nil
}

// WriteCSV emits the spans as CSV rows (task, callback, shard, start_ns,
// end_ns, duration_ns, queue_wait_ns, slack, attempt, replayed) relative to
// the first start, suitable for Gantt plotting.
func WriteCSV(w io.Writer, spans []Span) error {
	if _, err := fmt.Fprintln(w, "task,callback,shard,start_ns,end_ns,duration_ns,queue_wait_ns,slack,attempt,replayed"); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	epoch := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	for _, s := range spans {
		replayed := 0
		if s.Replayed {
			replayed = 1
		}
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Task, s.Callback, s.Shard,
			s.Start.Sub(epoch).Nanoseconds(), s.End.Sub(epoch).Nanoseconds(),
			s.Duration().Nanoseconds(), s.QueueWait.Nanoseconds(), s.Slack, s.Attempt, replayed)
		if err != nil {
			return err
		}
	}
	return nil
}
