// Package trace records per-task execution spans of a dataflow run and
// derives the comparison metrics the paper uses BabelFlow as a test bed
// for: per-shard busy time and utilization, per-task-type cost breakdowns,
// and the measured critical path of the executed graph. A Recorder is the
// controller's core.Observer: every controller reports each task as one
// core.Event from the same places (core.Step times a run, the MPI
// controller reports a ledger replay), and since the framework guarantees
// the same tasks execute on every runtime, traces of different controllers
// are directly comparable.
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
	// dispatch queue) and the worker that picked it up starting it. Zero for
	// controllers without a queue (serial, inline, charm, legion).
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

// Recorder collects spans: pass it as the controller's Observer. Safe for
// concurrent use.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe implements core.Observer: every task event, run or replayed,
// becomes one span; a retry event names no task and is skipped.
func (r *Recorder) Observe(e core.Event) {
	if e.Kind == core.EpochRetried {
		return
	}
	s := Span{Task: e.Task, Callback: e.Callback, Shard: e.Shard, Start: e.Start, End: e.End,
		Attempt: e.Attempt, Replayed: e.Kind == core.TaskReplayed}
	if !e.Ready.IsZero() {
		s.QueueWait = e.Start.Sub(e.Ready)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Wrap returns fn unchanged: the controller times every callback for its
// Observer, so registering the callbacks needs nothing from the recorder.
func (r *Recorder) Wrap(_ core.CallbackId, fn core.Callback) core.Callback { return fn }

// Spans returns the recorded spans sorted by start time.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Span(nil), r.spans...)
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
	r.spans = r.spans[:0]
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
// executed. Replayed spans are skipped: no callback ran for them.
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
	var first, last time.Time
	for _, s := range spans {
		if s.Replayed {
			continue
		}
		if len(byTask) == 0 {
			first, last = s.Start, s.End
		}
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
