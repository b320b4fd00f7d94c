// Work-stealing executor: the shared worker pool the MPI controller's
// ranks dispatch ready tasks into. Each rank owns a local priority deque;
// a fixed budget of workers is homed round-robin over the ranks, and an
// idle worker whose home deque is empty steals the most critical item from
// another rank's deque. Wakeups are steal-aware: a submit first wakes a
// worker parked on the item's home rank, and only if none is parked there
// (and stealing is enabled) wakes a worker parked elsewhere — so a wakeup
// is never wasted on a worker that cannot reach the item.
package fabric

import "sync"

// PoolOptions configures a work-stealing pool.
type PoolOptions struct {
	// FIFO disables priority ordering: items pop in submission order, the
	// pre-scheduler dispatch discipline (ablation baseline).
	FIFO bool
	// NoSteal pins workers to their home deque. Every home that will
	// receive work must then have at least one homed worker, or its items
	// never run.
	NoSteal bool
}

// poolItem is one queued unit of work.
type poolItem struct {
	pri int64  // larger runs first
	seq uint64 // submission order; tie-break and FIFO order
	run func()
}

// itemQueue is a deterministic priority deque: max-priority first, ties in
// submission order. In FIFO mode priority is ignored and items pop in
// submission order.
type itemQueue struct {
	items []poolItem
	fifo  bool
}

func (q *itemQueue) less(i, j int) bool {
	if !q.fifo && q.items[i].pri != q.items[j].pri {
		return q.items[i].pri > q.items[j].pri
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *itemQueue) push(it poolItem) {
	q.items = append(q.items, it)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *itemQueue) pop() (poolItem, bool) {
	n := len(q.items)
	if n == 0 {
		return poolItem{}, false
	}
	top := q.items[0]
	q.items[0] = q.items[n-1]
	q.items[n-1] = poolItem{} // drop the closure reference
	q.items = q.items[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q.less(l, best) {
			best = l
		}
		if r < n && q.less(r, best) {
			best = r
		}
		if best == i {
			break
		}
		q.items[i], q.items[best] = q.items[best], q.items[i]
		i = best
	}
	return top, true
}

// Pool executes submitted work on a fixed set of worker goroutines over
// per-home priority deques. It is the execution half of the MPI
// controller's scheduler; the deques hold ready tasks, homes correspond to
// ranks.
type Pool struct {
	mu     sync.Mutex
	queues []itemQueue
	conds  []*sync.Cond // one per home; workers park on their home's cond
	idle   []int        // parked workers per home
	parked int          // total parked workers
	queued int          // items queued across all homes
	seq    uint64
	steal  bool
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a pool with one deque per home and one worker per entry of
// homes (homes[i] is worker i's home deque). Workers run until Close.
func NewPool(homeCount int, homes []int, opt PoolOptions) *Pool {
	if homeCount < 1 {
		panic("fabric: pool needs at least one home")
	}
	p := &Pool{
		queues: make([]itemQueue, homeCount),
		conds:  make([]*sync.Cond, homeCount),
		idle:   make([]int, homeCount),
		steal:  !opt.NoSteal,
	}
	for i := range p.queues {
		p.queues[i].fifo = opt.FIFO
		p.conds[i] = sync.NewCond(&p.mu)
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

// Submit enqueues work on a home's deque. Larger pri runs first (ignored in
// FIFO mode); equal priorities run in submission order. Submit never
// blocks. Submitting to a closed pool still runs the item (the pool drains
// before its workers exit), but new submissions racing Close are the
// caller's responsibility to avoid.
func (p *Pool) Submit(home int, pri int64, run func()) {
	p.mu.Lock()
	p.seq++
	p.queues[home].push(poolItem{pri: pri, seq: p.seq, run: run})
	p.queued++
	// Steal-aware wakeup: a worker parked on this home can always take the
	// item; a worker parked elsewhere only helps when stealing is on.
	switch {
	case p.idle[home] > 0:
		p.wakeLocked(home)
	case p.steal && p.parked > 0:
		for h := range p.idle {
			if p.idle[h] > 0 {
				p.wakeLocked(h)
				break
			}
		}
	}
	p.mu.Unlock()
}

// wakeLocked signals one worker parked on home and takes it off the parked
// counts at once, so the next Submit sees it as taken even before it has
// re-acquired the lock, and wakes another worker instead.
func (p *Pool) wakeLocked(home int) {
	p.idle[home]--
	p.parked--
	p.conds[home].Signal()
}

// popLocked takes the next item for a worker homed at home: its own deque
// first, then (with stealing) the most critical item of the first non-empty
// deque scanning from home+1.
func (p *Pool) popLocked(home int) (poolItem, bool) {
	if it, ok := p.queues[home].pop(); ok {
		return it, true
	}
	if p.steal {
		n := len(p.queues)
		for d := 1; d < n; d++ {
			if it, ok := p.queues[(home+d)%n].pop(); ok {
				return it, true
			}
		}
	}
	return poolItem{}, false
}

func (p *Pool) worker(home int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if it, ok := p.popLocked(home); ok {
			p.queued--
			p.mu.Unlock()
			it.run()
			p.mu.Lock()
			continue
		}
		if p.closed {
			break
		}
		p.idle[home]++
		p.parked++
		p.conds[home].Wait() // whoever wakes us has uncounted us
	}
	p.mu.Unlock()
}

// Queued returns the number of items currently waiting in the deques.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// Close stops the pool: workers drain the work they can reach (their home
// deque, plus anything stealable) and exit. Close blocks until every worker
// has exited; it is safe to call once, from a non-worker goroutine.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	clear(p.idle)
	p.parked = 0
	for _, c := range p.conds {
		c.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
