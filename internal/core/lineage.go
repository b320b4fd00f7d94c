package core

import "sync"

// Ledger is the per-rank lineage record of the fault-tolerance layer: for
// every task the rank has completed it retains the serialized (wire-form)
// outputs, so a recovery epoch can replay those outputs downstream without
// re-running the callback. This is NOT a checkpoint — it exploits the
// paper's idempotence contract: any task whose outputs were not recorded
// (or whose rank died) is simply re-executed, and only the undelivered
// frontier pays the re-execution cost.
//
// Recording is best effort: object payloads that do not implement
// Serializable are skipped and their task re-executes on replay, which is
// always correct. Recorded buffers are owned by the ledger; callers must
// copy before mutating or emitting (a replay may happen more than once).
//
// A Ledger may be backed by a durable LedgerStore (NewLedgerBacked), in
// which case every recorded output is also journaled and the in-memory map
// becomes a bounded cache: entries confirmed persisted are evicted once the
// cache exceeds its limit and are re-read from the store on demand, so a
// long run's ledger footprint stays bounded and a restarted run resumes
// from whatever the journal retained.
//
// A Ledger is safe for concurrent use by the rank's worker pool.
type Ledger struct {
	mu       sync.Mutex
	outs     map[TaskId][][]byte
	attempts map[TaskId]int
	replays  int
	execs    int
	adopted  int

	store      LedgerStore     // nil for a purely in-memory ledger
	stored     map[TaskId]bool // persisted in store (safe to evict)
	evictable  []TaskId        // FIFO of cached+stored ids, eviction order
	cacheLimit int             // max cached entries when store != nil
	restored   int             // tasks inherited from the store at open
	storeErrs  int             // failed store appends (entry stays pinned)
}

// NewLedger returns an empty in-memory ledger.
func NewLedger() *Ledger {
	return &Ledger{
		outs:     make(map[TaskId][][]byte),
		attempts: make(map[TaskId]int),
	}
}

// NewLedgerBacked returns a ledger journaling through store. Tasks already
// present in the store are immediately replayable — a restarted run skips
// them (Restored reports how many). cacheLimit bounds the in-memory cache;
// non-positive selects DefaultLedgerCache. The ledger does not close the
// store.
func NewLedgerBacked(store LedgerStore, cacheLimit int) *Ledger {
	if cacheLimit <= 0 {
		cacheLimit = DefaultLedgerCache
	}
	l := NewLedger()
	l.store = store
	l.stored = make(map[TaskId]bool)
	l.cacheLimit = cacheLimit
	for _, id := range store.TaskIds() {
		l.stored[id] = true
	}
	l.restored = len(l.stored)
	return l
}

// BeginAttempt records that the task is about to execute and returns the
// attempt number (1 = first execution across all epochs).
func (l *Ledger) BeginAttempt(id TaskId) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempts[id]++
	l.execs++
	return l.attempts[id]
}

// Attempts returns how many times the task has begun executing.
func (l *Ledger) Attempts(id TaskId) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempts[id]
}

// Record stores the task's serialized outputs (one buffer per output slot),
// journaling them first when the ledger is store-backed. The ledger takes
// ownership of the buffers. A failed journal append is not fatal: the entry
// stays pinned in memory (never evicted) so the run proceeds correctly and
// only durability is degraded.
func (l *Ledger) Record(id TaskId, outs [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.outs[id] = outs
	if l.store == nil {
		return
	}
	if err := l.store.Append(id, outs); err != nil {
		l.storeErrs++
		delete(l.stored, id)
		return
	}
	if !l.stored[id] {
		l.stored[id] = true
	}
	l.evictable = append(l.evictable, id)
	l.evictLocked()
}

// evictLocked drops confirmed-persisted cache entries, oldest first, until
// the cache fits cacheLimit. Unpersisted entries are pinned.
func (l *Ledger) evictLocked() {
	for len(l.outs) > l.cacheLimit && len(l.evictable) > 0 {
		id := l.evictable[0]
		l.evictable = l.evictable[1:]
		if l.stored[id] {
			delete(l.outs, id)
		}
	}
}

// Outputs returns the recorded wire-form outputs of a completed task, or
// ok=false when the task must (re-)execute. Evicted or restored entries are
// read back from the store (a record that fails its integrity re-check is
// forgotten, so the task re-executes). The returned buffers are owned by
// the ledger: clone before emitting.
func (l *Ledger) Outputs(id TaskId) ([][]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if outs, ok := l.outs[id]; ok {
		return outs, ok
	}
	if l.store == nil || !l.stored[id] {
		return nil, false
	}
	outs, ok, err := l.store.Get(id)
	if err != nil || !ok {
		delete(l.stored, id)
		return nil, false
	}
	l.outs[id] = outs
	l.evictable = append(l.evictable, id)
	l.evictLocked()
	return outs, true
}

// CountReplay accounts one ledger replay (a task whose callback was skipped
// because its outputs were already recorded).
func (l *Ledger) CountReplay() {
	l.mu.Lock()
	l.replays++
	l.mu.Unlock()
}

// Replays returns how many tasks were replayed from the ledger.
func (l *Ledger) Replays() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replays
}

// Executions returns how many callback executions the ledger has seen
// (replays excluded).
func (l *Ledger) Executions() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.execs
}

// Completed returns how many tasks have recorded outputs, whether cached
// in memory or spilled to the store.
func (l *Ledger) Completed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store == nil {
		return len(l.outs)
	}
	n := len(l.stored)
	for id := range l.outs {
		if !l.stored[id] {
			n++
		}
	}
	return n
}

// Restored returns how many tasks the ledger inherited from its store at
// open — the completed work a resumed run does not repeat.
func (l *Ledger) Restored() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.restored
}

// Cached returns the number of in-memory cache entries (testing aid).
func (l *Ledger) Cached() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.outs)
}

// StoreErrors returns how many journal appends failed; those entries stay
// pinned in memory so correctness is unaffected.
func (l *Ledger) StoreErrors() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.storeErrs
}

// Adopt copies the donor ledger's recorded outputs for id into l, making l
// the task's new owner of record. When l is store-backed the adopted record
// is journaled like any other, so a hand-off (drain, rebalance) is durable
// before the donor's journal is retired. Returns false when the donor has
// nothing recorded for id — the task simply re-executes on the new owner,
// which is always correct. Buffers are deep-copied: the two ledgers share
// no memory afterwards.
func (l *Ledger) Adopt(donor *Ledger, id TaskId) bool {
	if donor == nil || donor == l {
		return false
	}
	outs, ok := donor.Outputs(id)
	if !ok {
		return false
	}
	cp := make([][]byte, len(outs))
	for i, b := range outs {
		cp[i] = append([]byte(nil), b...)
	}
	l.Record(id, cp)
	l.mu.Lock()
	l.adopted++
	l.mu.Unlock()
	return true
}

// Adopted returns how many tasks the ledger adopted from donors.
func (l *Ledger) Adopted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.adopted
}
