package fabric

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runOrder submits items while the pool's single worker is held at a
// barrier, then releases it and returns the order the items ran in.
func runOrder(t *testing.T, submit func(p *Pool, record func(v int) func(int))) []int {
	t.Helper()
	p := NewPool(1, []int{0})
	var mu sync.Mutex
	var order []int
	record := func(v int) func(int) {
		return func(int) {
			mu.Lock()
			order = append(order, v)
			mu.Unlock()
		}
	}
	// Occupy the worker so every subsequent submit queues up and the pop
	// order is decided by the queue, not by submission racing execution.
	hold := make(chan struct{})
	started := make(chan struct{})
	p.Submit(0, 1<<40, func(int) { close(started); <-hold }, 0)
	<-started

	submit(p, record)
	for p.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	p.Close()

	mu.Lock()
	defer mu.Unlock()
	return order
}

func TestPoolPriorityOrder(t *testing.T) {
	order := runOrder(t, func(p *Pool, record func(int) func(int)) {
		p.Submit(0, 1, record(1), 0)
		p.Submit(0, 3, record(3), 0)
		p.Submit(0, 2, record(2), 0)
		p.Submit(0, 3, record(30), 0) // same priority: after the first 3
	})
	want := []int{3, 30, 2, 1}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}

// TestPoolStealing parks one item on a home with no worker: only stealing
// gets it executed.
func TestPoolStealing(t *testing.T) {
	p := NewPool(2, []int{0}) // one worker, homed at 0
	var ran atomic.Bool
	done := make(chan struct{})
	p.Submit(1, 0, func(int) { ran.Store(true); close(done) }, 0)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker homed at 0 never stole the item queued at home 1")
	}
	p.Close()
	if !ran.Load() {
		t.Fatal("item did not run")
	}
}

// TestPoolBurstWakesParkedStealer submits two items back to back to home 0
// while the workers of homes 0 and 1 are both parked; the first item blocks
// until the second has run. The second submit must wake the worker parked
// on home 1 to steal it: signalling home 0 again would wake nobody, since
// home 0's only worker is already woken, and the pool would hang.
func TestPoolBurstWakesParkedStealer(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		p := NewPool(2, []int{0, 1})
		for parked := 0; parked < 2; {
			runtime.Gosched()
			parked = int(p.parked.Load())
		}
		ran := make(chan struct{})
		done := make(chan struct{})
		p.Submit(0, 0, func(int) { <-ran; close(done) }, 0)
		p.Submit(0, 0, func(int) { close(ran) }, 0)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("trial %d: the second item never ran while a stealer was parked", trial)
		}
		p.Close()
	}
}

func TestPoolManyItemsAllRun(t *testing.T) {
	const items = 2000
	p := NewPool(4, RoundRobinHomes(3, 4))
	var count atomic.Int64
	var wg sync.WaitGroup
	wg.Add(items)
	for i := 0; i < items; i++ {
		p.Submit(i%4, int64(i%7), func(int) { count.Add(1); wg.Done() }, i)
	}
	wg.Wait()
	p.Close()
	if count.Load() != items {
		t.Fatalf("ran %d of %d items", count.Load(), items)
	}
	if q := p.Queued(); q != 0 {
		t.Fatalf("%d items still queued after drain", q)
	}
}

func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(1, []int{0})
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(0, 0, func(int) { count.Add(1) }, i)
	}
	p.Close() // workers drain reachable work before exiting
	if count.Load() != 100 {
		t.Fatalf("Close drained %d of 100 items", count.Load())
	}
}

func TestRoundRobinHomes(t *testing.T) {
	got := RoundRobinHomes(5, 3)
	want := []int{0, 1, 2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("homes = %v, want %v", got, want)
		}
	}
}

// TestPoolOrderMatchesReference runs seeded random workloads on one worker
// and checks the run order against a reference model: the next item is the
// queued one with the largest priority, then the earliest submitted. Items
// submit seeded children when they run, so levels empty, refill and
// interleave pushes with pops; priorities reach 1<<40.
func TestPoolOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pris := make([]int64, 1+rng.Intn(8)) // few values, so ties are common
		for i := range pris {
			pris[i] = rng.Int63n(1<<41) - 1<<40
		}
		const items = 400
		pri := make([]int64, items)
		children := make([][]int, items)
		for i := range pri {
			pri[i] = pris[rng.Intn(len(pris))]
		}
		initial := 1 + rng.Intn(items/4)
		for c := initial; c < items; c++ {
			parent := rng.Intn(c) // every child has an earlier parent
			children[parent] = append(children[parent], c)
		}

		// Reference: simulate one worker over a (priority, sequence) list.
		var want []int
		type queued struct{ id, seq int }
		var q []queued
		seq := 0
		push := func(id int) { q = append(q, queued{id, seq}); seq++ }
		for id := 0; id < initial; id++ {
			push(id)
		}
		for len(q) > 0 {
			best := 0
			for k := range q {
				if pri[q[k].id] > pri[q[best].id] {
					best = k
				}
			}
			id := q[best].id
			q = append(q[:best], q[best+1:]...)
			want = append(want, id)
			for _, c := range children[id] {
				push(c)
			}
		}

		p := NewPool(1, []int{0})
		var got []int // only the single worker appends
		var run func(int)
		run = func(id int) {
			got = append(got, id)
			for _, c := range children[id] {
				p.Submit(0, pri[c], run, c)
			}
		}
		hold, started := make(chan struct{}), make(chan struct{})
		p.Submit(0, 0, func(int) { close(started); <-hold }, 0)
		<-started
		for id := 0; id < initial; id++ {
			p.Submit(0, pri[id], run, id)
		}
		close(hold)
		p.Close()
		if len(got) != len(want) {
			t.Fatalf("seed %d: ran %d items, want %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: item %d ran %d, reference runs %d", seed, k, got[k], want[k])
			}
		}
	}
}

// TestPoolNoLostWakeups has one worker, homed at 0, and several goroutines
// submitting only to home 1, so every item reaches the worker through the
// cross-home wake-up alone. Each submitter waits for its item to run before
// submitting the next, so its submit races the worker going to park. Each
// item must run exactly once, and nothing may stay queued after Close.
func TestPoolNoLostWakeups(t *testing.T) {
	const submitters, perSubmitter = 4, 2000
	rng := rand.New(rand.NewSource(7))
	p := NewPool(2, []int{0})
	runs := make([]atomic.Int32, submitters*perSubmitter)
	ran := make([]chan struct{}, submitters)
	run := func(id int) {
		runs[id].Add(1)
		ran[id/perSubmitter] <- struct{}{}
	}
	var wg sync.WaitGroup
	for s := range ran {
		ran[s] = make(chan struct{}, 1)
		pri := rng.Int63n(4)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				p.Submit(1, pri, run, s*perSubmitter+k)
				<-ran[s]
			}
		}(s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%d items still queued with the worker parked: a wake-up was lost", p.Queued())
	}
	p.Close()
	for id := range runs {
		if n := runs[id].Load(); n != 1 {
			t.Fatalf("item %d ran %d times", id, n)
		}
	}
	if q := p.Queued(); q != 0 {
		t.Fatalf("%d items queued after Close", q)
	}
}

// BenchmarkPool measures the executor's per-item cost with two workers on
// two chains of items, each item submitting its successor: homed on two
// homes, one chain and one worker each, the two sides share no lock; on
// one home both chains and both workers contend for its lock.
func BenchmarkPool(b *testing.B) {
	for _, bc := range []struct {
		name  string
		homes int
	}{{"two-homes", 2}, {"one-home", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			p := NewPool(bc.homes, RoundRobinHomes(2, bc.homes))
			defer p.Close()
			var done sync.WaitGroup
			chain := func(h int) func(int) {
				var run func(int)
				run = func(left int) {
					if left == 0 {
						done.Done()
						return
					}
					p.Submit(h, 0, run, left-1)
				}
				return run
			}
			b.ResetTimer()
			done.Add(2)
			for c := 0; c < 2; c++ {
				h := c % bc.homes
				p.Submit(h, 0, chain(h), b.N/2)
			}
			done.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(b.N, 1)), "ns/item")
		})
	}
}
