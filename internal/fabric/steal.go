// Work-stealing executor: the shared worker pool the MPI controller's
// ranks dispatch ready tasks into. Each home (a rank) owns a priority deque
// behind its own lock, padded off its neighbours' cache lines, so a worker
// running its home's tasks takes no lock and writes no counter that another
// home's workers take or write. A fixed budget of workers is homed
// round-robin over the homes; a worker pops its home deque first and, when
// it is dry, steals the most critical item of another home, locking one
// victim at a time (scanning from home+1).
//
// Wake-ups cross homes without a shared lock. A submit first wakes a worker
// parked on the item's home (under that home's lock), and only if none is
// parked there wakes a worker parked elsewhere.
// Parking is a check-after-publish handshake on atomic counters: a worker
// about to park counts itself in parked, then re-reads every home's
// queued count; a submitter counts the item
// in its home's queued, then reads parked. The atomics are sequentially
// consistent, so at least one side sees the other and no wake-up is lost.
package fabric

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// poolItem is one queued unit of work, run(arg). Items carry no per-task
// closure: a caller submits one shared runner with a task index.
type poolItem struct {
	run func(int)
	arg int
}

// level is the FIFO of one priority: items[head:] in submission order. It
// is padded to a cache line and its buffer starts at four items (64 bytes):
// the allocator keeps 64-byte multiples 64-byte aligned, so no two homes'
// levels or buffers share a line.
type level struct {
	pri   int64
	items []poolItem
	head  int
	_     [24]byte
}

// itemQueue is a deterministic priority deque: one FIFO per distinct
// priority, the levels sorted by ascending priority, so items pop highest
// priority first and, within a priority, in submission order. A push at
// the top's priority is O(1); a new priority costs a binary search and a
// shift of the (few) levels above it. Emptied levels keep their buffers in
// the slice's spare capacity for the next new priority.
type itemQueue struct {
	levels []level
}

func (q *itemQueue) push(pri int64, it poolItem) {
	n := len(q.levels)
	k := n - 1
	if n == 0 || q.levels[k].pri != pri {
		k = sort.Search(n, func(i int) bool { return q.levels[i].pri >= pri })
		if k == n || q.levels[k].pri != pri {
			var buf []poolItem // a retired level's, from the spare capacity
			if n < cap(q.levels) {
				buf = q.levels[:n+1][n].items[:0]
			}
			q.levels = slices.Insert(q.levels, k, level{pri: pri, items: buf})
		}
	}
	l := &q.levels[k]
	switch {
	case l.items == nil:
		l.items = make([]poolItem, 0, 4)
	case len(l.items) == cap(l.items) && l.head > 0:
		// Compact instead of growing: the popped prefix is dead.
		m := copy(l.items, l.items[l.head:])
		clear(l.items[m:])
		l.items, l.head = l.items[:m], 0
	}
	l.items = append(l.items, it)
}

func (q *itemQueue) pop() (poolItem, bool) {
	n := len(q.levels)
	if n == 0 {
		return poolItem{}, false
	}
	top := &q.levels[n-1]
	it := top.items[top.head]
	top.items[top.head] = poolItem{} // drop the runner reference
	top.head++
	if top.head == len(top.items) {
		// Retire the emptied level; its buffer stays in the spare capacity.
		top.items, top.head = top.items[:0], 0
		q.levels = q.levels[:n-1]
	}
	return it, true
}

// home is one home's deque and parking spot. mu guards q and the writes of
// queued and idle, which other homes' workers read without it; the
// trailing pad keeps the next home off this one's cache lines.
type home struct {
	mu     sync.Mutex
	wake   sync.Cond // L is &mu; the home's parked workers wait here
	q      itemQueue
	queued atomic.Int64 // items in q
	idle   atomic.Int32 // workers parked here and not yet woken
	_      [64]byte
}

// pop takes the home's most critical item, passing over an empty home
// without taking its lock.
func (h *home) pop() (poolItem, bool) {
	if h.queued.Load() == 0 {
		return poolItem{}, false
	}
	h.mu.Lock()
	it, ok := h.q.pop()
	if ok {
		h.queued.Add(-1)
	}
	h.mu.Unlock()
	return it, ok
}

// Pool executes submitted work on a fixed set of worker goroutines over
// per-home priority deques. It is the execution half of the MPI
// controller's scheduler; the deques hold ready tasks, homes correspond to
// ranks.
type Pool struct {
	homes  []home
	parked atomic.Int32 // workers parked in any home and not yet woken
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewPool starts a pool with one deque per home and one worker per entry of
// homes (homes[i] is worker i's home deque). Workers run until Close.
func NewPool(homeCount int, homes []int) *Pool {
	if homeCount < 1 {
		panic("fabric: pool needs at least one home")
	}
	p := &Pool{homes: make([]home, homeCount)}
	for i := range p.homes {
		p.homes[i].wake.L = &p.homes[i].mu
	}
	p.wg.Add(len(homes))
	for _, h := range homes {
		if h < 0 || h >= homeCount {
			panic("fabric: worker homed outside the pool")
		}
		go p.worker(h)
	}
	return p
}

// RoundRobinHomes returns worker home assignments distributing n workers
// over homeCount homes in round robin — every home gets a worker before any
// home gets a second.
func RoundRobinHomes(n, homeCount int) []int {
	homes := make([]int, n)
	for i := range homes {
		homes[i] = i % homeCount
	}
	return homes
}

// Submit enqueues run(arg) on a home's deque. Larger pri runs first; equal
// priorities run in submission order. Submit never blocks; it locks the
// item's home, and the home of a parked worker it wakes — the item's own,
// or the first other one.
// Submitting to a closed pool still runs the item (the pool drains before
// its workers exit), but new submissions racing Close are the caller's
// responsibility to avoid.
func (p *Pool) Submit(home int, pri int64, run func(int), arg int) {
	h := &p.homes[home]
	h.mu.Lock()
	h.q.push(pri, poolItem{run: run, arg: arg})
	h.queued.Add(1)
	h.mu.Unlock()
	// The item is published in queued, so a worker parking from here on
	// sees it; one parked already is counted in idle and parked.
	if p.wake(h) || p.parked.Load() == 0 {
		return
	}
	for d := 1; d < len(p.homes); d++ {
		if p.wake(&p.homes[(home+d)%len(p.homes)]) {
			return
		}
	}
}

// wake signals one worker parked on h, if there is one, and takes it off
// the parked counts at once, so the next Submit sees it as taken even
// before it has re-acquired the lock, and wakes another worker instead.
func (p *Pool) wake(h *home) bool {
	if h.idle.Load() == 0 {
		return false // passed over without taking the lock
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.idle.Load() == 0 {
		return false
	}
	h.idle.Add(-1)
	p.parked.Add(-1)
	h.wake.Signal()
	return true
}

// take pops the next item for a worker homed at me: its own deque first,
// then the most critical item of the first non-empty deque scanning from
// me+1.
func (p *Pool) take(me int) (poolItem, bool) {
	n := len(p.homes)
	for d := 0; d < n; d++ {
		if it, ok := p.homes[(me+d)%n].pop(); ok {
			return it, true
		}
	}
	return poolItem{}, false
}

// park blocks the worker homed at me until there may be work for it. It
// counts the worker as parked before re-checking for work (the handshake
// with Submit), and returns false once the pool is closed and nothing is
// queued.
func (p *Pool) park(me int) bool {
	h := &p.homes[me]
	h.mu.Lock()
	defer h.mu.Unlock()
	h.idle.Add(1)
	p.parked.Add(1)
	work := p.Queued() > 0
	if !work && !p.closed.Load() {
		h.wake.Wait() // whoever wakes us has uncounted us
		return true
	}
	h.idle.Add(-1)
	p.parked.Add(-1)
	return work
}

func (p *Pool) worker(me int) {
	defer p.wg.Done()
	for {
		if it, ok := p.take(me); ok {
			it.run(it.arg)
		} else if !p.park(me) {
			return
		}
	}
}

// Queued returns the number of items currently waiting in the deques.
func (p *Pool) Queued() int {
	n := 0
	for i := range p.homes {
		n += int(p.homes[i].queued.Load())
	}
	return n
}

// Close stops the pool: workers drain every deque and exit. Close blocks
// until every worker has exited; it is safe to call once, from a
// non-worker goroutine. A nil pool — an inline run's — has nothing to
// stop.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closed.Store(true)
	for i := range p.homes {
		h := &p.homes[i]
		h.mu.Lock()
		p.parked.Add(-h.idle.Swap(0))
		h.wake.Broadcast()
		h.mu.Unlock()
	}
	p.wg.Wait()
}
