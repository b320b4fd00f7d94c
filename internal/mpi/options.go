package mpi

import (
	"fmt"
	"runtime"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/journal"
)

// TransportFactory builds the transport an in-process Run executes over —
// the hook the functional option WithTransport installs. The returned
// transport must be receivable for every rank in-process (like the
// in-memory fabric); per-process transports (wire) go through RunRank.
type TransportFactory func(ranks int) fabric.Transport

// options is the resolved configuration of a Controller or Service; the
// functional options below are the only way to set it.
type options struct {
	Workers         int
	Inline          bool
	AlwaysSerialize bool
	Observer        core.Observer
	Retry           core.RetryPolicy
	Transport       TransportFactory
	Journal         string
	JournalSync     journal.SyncPolicy
	// Group-commit window; zero keeps the journal defaults (2ms, 64 records).
	JournalCommitInterval time.Duration
	JournalCommitRecords  int

	// Validation bookkeeping stamped by the options so conflicting
	// combinations surface as errors at Initialize instead of silently
	// letting the last option win.
	syncSet  bool
	syncWas  journal.SyncPolicy
	groupSet bool
	optErr   error
}

// validate rejects option combinations with no coherent meaning: an
// explicit WithJournalSync policy fighting WithJournalGroupCommit, or a
// negative commit window. It returns the first error an option recorded
// while being applied.
func (o *options) validate() error {
	if o.optErr != nil {
		return o.optErr
	}
	if o.syncSet && o.groupSet && o.syncWas != journal.SyncGroupCommit {
		return fmt.Errorf("mpi: WithJournalSync(%v) conflicts with WithJournalGroupCommit (which implies %v); pass one of them",
			o.syncWas, journal.SyncGroupCommit)
	}
	if o.JournalCommitInterval < 0 {
		return fmt.Errorf("mpi: negative journal commit interval %v", o.JournalCommitInterval)
	}
	if o.JournalCommitRecords < 0 {
		return fmt.Errorf("mpi: negative journal commit record bound %d", o.JournalCommitRecords)
	}
	return nil
}

// resolve applies opts left to right and fills the defaults.
func resolve(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// newPool builds the work-stealing executor for runs over ranks: the worker
// budget, capped at limit (the tasks that can ever be in flight; a resident
// service passes the budget itself), homed round-robin over the ranks. A
// run that drives a single rank (only >= 0) homes every worker there — its
// peers live behind the transport, so the budget applies per process.
// Inline runs have none: the rank loops run their tasks.
func (o *options) newPool(limit, ranks, only int) *fabric.Pool {
	if o.Inline {
		return nil
	}
	homes := fabric.RoundRobinHomes(max(min(o.Workers, limit), 1), ranks)
	if only >= 0 {
		for i := range homes {
			homes[i] = only
		}
	}
	return fabric.NewPool(ranks, homes)
}

// Option configures a Controller (or Service, or in-situ Group) at
// construction. Options are applied left to right, so a later option
// overrides an earlier one for the same knob.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithWorkers sets the global worker budget of a run: the number of
// executor goroutines shared by all ranks. An idle rank's worker executes
// another rank's ready tasks, so the budget bounds total execution
// concurrency rather than per-rank concurrency. Zero selects
// runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return optionFunc(func(o *options) { o.Workers = n })
}

// WithObserver installs the execution observer: it receives one core.Event
// per executed task (with its queue entry instant unless inline), per
// ledger replay, and per retry epoch of a fault-tolerant run.
func WithObserver(obs core.Observer) Option {
	return optionFunc(func(o *options) { o.Observer = obs })
}

// WithRetry sets the retry policy governing fault-tolerant execution
// (RunElastic): attempt count, backoff, per-attempt timeout.
// The zero value selects core.DefaultRetryPolicy.
func WithRetry(p core.RetryPolicy) Option {
	return optionFunc(func(o *options) { o.Retry = p })
}

// WithTransport installs the factory of the transport Run/RunContext
// executes over instead of the default in-memory fabric — the seam fault
// injection and custom interconnects plug into.
func WithTransport(t TransportFactory) Option {
	return optionFunc(func(o *options) { o.Transport = t })
}

// WithInline executes tasks inside the controller loop instead of on the
// pool — the single-threaded execution style of the hand-tuned baseline.
func WithInline(inline bool) Option {
	return optionFunc(func(o *options) { o.Inline = inline })
}

// WithAlwaysSerialize disables the in-memory message optimization, forcing
// every payload through its wire form even for rank-local deliveries (which
// still bypass the transport) — the configuration conformance tests use to
// prove serialization round-trips are lossless.
func WithAlwaysSerialize(always bool) Option {
	return optionFunc(func(o *options) { o.AlwaysSerialize = always })
}

// WithJournal persists every rank's lineage ledger under dir (rank r under
// dir/rank-r) as a segmented CRC32C record log (internal/journal), making
// runs resumable: a controller started over an existing journal replays
// journaled outputs instead of re-executing, so only the un-journaled
// frontier runs. Journaling implies fault-tolerant bookkeeping
// (sequence-stamped messages, receiver dedup) even outside RunElastic.
func WithJournal(dir string) Option {
	return optionFunc(func(o *options) { o.Journal = dir })
}

// WithJournalSync selects the journal's fsync policy. The default
// (journal.SyncEveryRecord) makes every recorded task crash-durable; see
// journal.SyncPolicy for the cheaper relaxations. Combining it with
// WithJournalGroupCommit is an error unless the policy is
// journal.SyncGroupCommit — the two options would otherwise silently
// overwrite each other depending on order.
func WithJournalSync(p journal.SyncPolicy) Option {
	return optionFunc(func(o *options) {
		o.JournalSync = p
		o.syncSet, o.syncWas = true, p
	})
}

// WithJournalGroupCommit selects the journal.SyncGroupCommit fsync policy
// with the given commit window: a background committer fsyncs once per
// interval (or every records appends, whichever comes first), amortizing
// durability across the window. Both bounds must be positive — a zero or
// negative window is rejected at Initialize with a clear error rather than
// silently degrading durability. (The journal's own defaults are 2ms and
// 64 records.)
func WithJournalGroupCommit(interval time.Duration, records int) Option {
	return optionFunc(func(o *options) {
		o.JournalSync = journal.SyncGroupCommit
		o.JournalCommitInterval = interval
		o.JournalCommitRecords = records
		o.groupSet = true
		if interval <= 0 || records <= 0 {
			o.optErr = fmt.Errorf("mpi: WithJournalGroupCommit window must be positive, got interval %v, records %d", interval, records)
		}
	})
}
