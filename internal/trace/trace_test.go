package trace

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
)

func tracedRun(t *testing.T, shards int) (*graphs.Reduction, *Recorder) {
	t.Helper()
	g, _ := graphs.NewReduction(16, 2)
	rec := NewRecorder()
	c := mpi.New(mpi.WithObserver(rec))
	if err := c.Initialize(g, core.NewModuloMap(shards, g.Size())); err != nil {
		t.Fatal(err)
	}
	work := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		time.Sleep(200 * time.Microsecond)
		return []core.Payload{core.Buffer([]byte{1})}, nil
	}
	for _, cb := range g.Callbacks() {
		c.RegisterCallback(cb, work)
	}
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range g.LeafIds() {
		initial[id] = []core.Payload{core.Buffer([]byte{2})}
	}
	if _, err := c.Run(initial); err != nil {
		t.Fatal(err)
	}
	return g, rec
}

func TestRecorderCapturesAllTasks(t *testing.T) {
	g, rec := tracedRun(t, 4)
	spans := rec.Spans()
	if len(spans) != g.Size() {
		t.Fatalf("spans = %d, want %d", len(spans), g.Size())
	}
	seen := make(map[core.TaskId]bool)
	for _, s := range spans {
		if s.End.Before(s.Start) {
			t.Errorf("task %d: end before start", s.Task)
		}
		if s.Duration() <= 0 {
			t.Errorf("task %d: non-positive duration", s.Task)
		}
		if seen[s.Task] {
			t.Errorf("task %d recorded twice", s.Task)
		}
		seen[s.Task] = true
	}
	// Spans sorted by start.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatal("spans not sorted by start")
		}
	}
}

func TestRecorderShardsMatchMap(t *testing.T) {
	g, rec := tracedRun(t, 4)
	m := core.NewModuloMap(4, g.Size())
	for _, s := range rec.Spans() {
		if s.Shard != m.Shard(s.Task) {
			t.Errorf("task %d traced on shard %d, mapped to %d", s.Task, s.Shard, m.Shard(s.Task))
		}
	}
}

func TestSummarize(t *testing.T) {
	g, rec := tracedRun(t, 4)
	sum, err := Summarize(g, rec.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tasks != g.Size() {
		t.Errorf("Tasks = %d", sum.Tasks)
	}
	if sum.Wall <= 0 {
		t.Error("Wall must be positive")
	}
	// The MPI controller's shared executor runs at most GOMAXPROCS tasks
	// concurrently (the default worker budget), so busy time is bounded by
	// wall * budget and utilization by budget (over >= 1 shard).
	u := sum.Utilization()
	if max := float64(runtime.GOMAXPROCS(0)); u <= 0 || u > max+0.0001 {
		t.Errorf("utilization = %f, budget %f", u, max)
	}
	if sum.QueueWait < 0 || sum.CriticalQueueWait < 0 || sum.CriticalQueueWait > sum.QueueWait {
		t.Errorf("queue waits: total %v, critical %v", sum.QueueWait, sum.CriticalQueueWait)
	}
	// Critical path of a 31-task binary reduction with equal task costs is
	// 5 levels deep: it must be at least 5x the min task duration and at
	// most the total busy time.
	var minDur, total time.Duration
	for i, s := range rec.Spans() {
		if i == 0 || s.Duration() < minDur {
			minDur = s.Duration()
		}
		total += s.Duration()
	}
	if sum.CriticalPath < 5*minDur {
		t.Errorf("critical path %v < 5 levels x %v", sum.CriticalPath, minDur)
	}
	if sum.CriticalPath > total {
		t.Errorf("critical path %v exceeds total busy %v", sum.CriticalPath, total)
	}
	if len(sum.ByCallback) != 3 {
		t.Errorf("callback types = %d, want 3", len(sum.ByCallback))
	}
	if len(sum.Busy) == 0 {
		t.Error("no per-shard busy times")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	sum, err := Summarize(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tasks != 0 || sum.Utilization() != 0 {
		t.Errorf("empty summary = %+v", sum)
	}
}

func TestSummarizeUnknownTask(t *testing.T) {
	g, _ := graphs.NewReduction(4, 2)
	if _, err := Summarize(g, []Span{{Task: 999}}); err == nil {
		t.Error("unknown task should fail")
	}
}

func TestWriteCSV(t *testing.T) {
	_, rec := tracedRun(t, 2)
	var b strings.Builder
	if err := WriteCSV(&b, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "task,callback,shard,start_ns,end_ns,duration_ns,queue_wait_ns,slack,attempt,replayed" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+len(rec.Spans()) {
		t.Errorf("rows = %d, want %d", len(lines)-1, len(rec.Spans()))
	}
	// First data row starts at offset 0 (epoch-relative).
	if !strings.Contains(lines[1], ",0,") {
		t.Errorf("first row not epoch-relative: %q", lines[1])
	}
	var empty strings.Builder
	if err := WriteCSV(&empty, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQueueWaitRecorded runs 15 sleeping tasks through a single worker: all
// but the running task wait in the dispatch queue, so the recorder (wired
// as the controller's Observer) must see positive queue wait. In a
// complete reduction every task lies on a critical path, so the critical
// queue wait equals the total.
func TestQueueWaitRecorded(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	rec := NewRecorder()
	c := mpi.New(mpi.WithObserver(rec), mpi.WithWorkers(1))
	if err := c.Initialize(g, core.NewModuloMap(2, g.Size())); err != nil {
		t.Fatal(err)
	}
	work := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		time.Sleep(200 * time.Microsecond)
		return []core.Payload{core.Buffer([]byte{1})}, nil
	}
	for _, cb := range g.Callbacks() {
		c.RegisterCallback(cb, work)
	}
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range g.LeafIds() {
		initial[id] = []core.Payload{core.Buffer([]byte{2})}
	}
	if _, err := c.Run(initial); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(g, rec.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if sum.QueueWait <= 0 {
		t.Errorf("QueueWait = %v, want > 0 with one worker and %d sleeping tasks", sum.QueueWait, g.Size())
	}
	if sum.CriticalQueueWait != sum.QueueWait {
		t.Errorf("reduction tasks all have zero slack: critical wait %v != total %v", sum.CriticalQueueWait, sum.QueueWait)
	}
}

// retryLog is the recorder plus the retry events it skips.
type retryLog struct {
	*Recorder
	mu      sync.Mutex
	retries []core.Event
}

func (l *retryLog) Observe(e core.Event) {
	if e.Kind == core.EpochRetried {
		l.mu.Lock()
		l.retries = append(l.retries, e)
		l.mu.Unlock()
	}
	l.Recorder.Observe(e)
}

// TestRecorderTracesRecovery traces an elastic run over the in-memory
// fabric whose rank 1 is killed on its second inter-rank send of the first
// epoch. The trace must hold one replayed span per ledger replay and one
// executed span per callback execution across both epochs, Summarize must
// count only the executed ones, and the run must report one retry event
// naming the lost shard.
func TestRecorderTracesRecovery(t *testing.T) {
	g, _ := graphs.NewReduction(16, 2)
	obs := &retryLog{Recorder: NewRecorder()}
	c := mpi.New(mpi.WithObserver(obs), mpi.WithRetry(core.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}))
	if err := c.Initialize(g, core.NewModuloMap(2, g.Size())); err != nil {
		t.Fatal(err)
	}
	for _, cb := range g.Callbacks() {
		c.RegisterCallback(cb, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
			return []core.Payload{core.Buffer([]byte{byte(id)})}, nil
		})
	}
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range g.LeafIds() {
		initial[id] = []core.Payload{core.Buffer([]byte{2})}
	}
	ms, err := mpi.NewMembership(2)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := c.RunElastic(context.Background(), mpi.ElasticOptions{
		Connect: func(_, ranks int) ([]fabric.Transport, error) {
			fab := fabric.New(ranks)
			trs := make([]fabric.Transport, ranks)
			for i := range trs {
				trs[i] = fab
			}
			return trs, nil
		},
		Inject: func(epoch, rank int, tr fabric.Transport) fabric.Transport {
			if epoch > 1 {
				return tr
			}
			return faultinject.Wrap(tr, rank, faultinject.Plan{KillRank: 1, KillAfter: 1})
		},
		Initial:    initial,
		Membership: ms,
	})
	if err != nil {
		t.Fatalf("RunElastic: %v (report %+v)", err, rep)
	}
	if rep.Epochs != 2 || rep.Fences != 0 || rep.Replayed == 0 {
		t.Fatalf("want one retry epoch that replays: %+v", rep)
	}

	spans := obs.Spans()
	replayed, executed := 0, 0
	for _, s := range spans {
		if s.Replayed {
			replayed++
		} else {
			executed++
		}
	}
	// No epoch before the last replays: the ledgers are empty until then.
	if replayed != rep.Replayed {
		t.Errorf("%d replayed spans, ledgers replayed %d", replayed, rep.Replayed)
	}
	if executed != rep.TotalExecuted {
		t.Errorf("%d executed spans, %d callback executions", executed, rep.TotalExecuted)
	}
	sum, err := Summarize(g, spans)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tasks != executed {
		t.Errorf("Summarize counted %d tasks, want the %d executed spans", sum.Tasks, executed)
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.retries) != rep.Epochs-1 {
		t.Fatalf("%d retry events, want %d", len(obs.retries), rep.Epochs-1)
	}
	if e := obs.retries[0]; e.Epoch != 2 || !slices.Equal(e.Lost, rep.LostShards) || len(e.Lost) != 1 {
		t.Errorf("retry event: epoch %d, lost %v; report lost %v", e.Epoch, e.Lost, rep.LostShards)
	}
}

func TestAnnotateSlack(t *testing.T) {
	// A -> B -> C with a side leaf L -> C: depths are A=3, B=2, C=1, L=2,
	// so L is one level off the critical path and everything else is on it.
	g := core.NewExplicitGraph([]core.Task{
		{Id: 0, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{1}}},
		{Id: 1, Callback: 0, Incoming: []core.TaskId{0}, Outgoing: [][]core.TaskId{{2}}},
		{Id: 2, Callback: 0, Incoming: []core.TaskId{1, 3}, Outgoing: [][]core.TaskId{{}}},
		{Id: 3, Callback: 0, Incoming: []core.TaskId{core.ExternalInput}, Outgoing: [][]core.TaskId{{2}}},
	})
	spans := []Span{{Task: 0}, {Task: 1}, {Task: 2}, {Task: 3}}
	if err := AnnotateSlack(g, spans); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1}
	for i, s := range spans {
		if s.Slack != want[i] {
			t.Errorf("task %d slack = %d, want %d", s.Task, s.Slack, want[i])
		}
	}
}

func TestRecorderReset(t *testing.T) {
	_, rec := tracedRun(t, 2)
	if len(rec.Spans()) == 0 {
		t.Fatal("no spans before reset")
	}
	rec.Reset()
	if len(rec.Spans()) != 0 {
		t.Error("spans survived reset")
	}
}
