package fabric

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runOrder submits items while the pool's single worker is held at a
// barrier, then releases it and returns the order the items ran in.
func runOrder(t *testing.T, opt PoolOptions, submit func(p *Pool, record func(v int) func())) []int {
	t.Helper()
	p := NewPool(1, []int{0}, opt)
	var mu sync.Mutex
	var order []int
	record := func(v int) func() {
		return func() {
			mu.Lock()
			order = append(order, v)
			mu.Unlock()
		}
	}
	// Occupy the worker so every subsequent submit queues up and the pop
	// order is decided by the queue, not by submission racing execution.
	hold := make(chan struct{})
	started := make(chan struct{})
	p.Submit(0, 1<<40, func() { close(started); <-hold })
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
	order := runOrder(t, PoolOptions{}, func(p *Pool, record func(int) func()) {
		p.Submit(0, 1, record(1))
		p.Submit(0, 3, record(3))
		p.Submit(0, 2, record(2))
		p.Submit(0, 3, record(30)) // same priority: after the first 3
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

func TestPoolFIFOOrder(t *testing.T) {
	order := runOrder(t, PoolOptions{FIFO: true}, func(p *Pool, record func(int) func()) {
		p.Submit(0, 1, record(1))
		p.Submit(0, 3, record(3))
		p.Submit(0, 2, record(2))
	})
	want := []int{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO order = %v, want %v", order, want)
		}
	}
}

// TestPoolStealing parks one item on a home with no worker: only stealing
// gets it executed.
func TestPoolStealing(t *testing.T) {
	p := NewPool(2, []int{0}, PoolOptions{}) // one worker, homed at 0
	var ran atomic.Bool
	done := make(chan struct{})
	p.Submit(1, 0, func() { ran.Store(true); close(done) })
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

// TestPoolNoStealPins verifies the ablation: with stealing off, a worker
// homed at 0 must not touch home 1's deque.
func TestPoolNoStealPins(t *testing.T) {
	p := NewPool(2, []int{0, 1}, PoolOptions{NoSteal: true})
	var home0Worker atomic.Bool
	block1 := make(chan struct{})
	started1 := make(chan struct{})
	// Occupy home 1's worker.
	p.Submit(1, 0, func() { close(started1); <-block1 })
	<-started1
	// Queue another item on home 1: home 0's idle worker must leave it.
	ran := make(chan struct{})
	p.Submit(1, 0, func() { home0Worker.Store(false); close(ran) })
	select {
	case <-ran:
		t.Fatal("home-1 item ran while home 1's worker was blocked: stealing not disabled")
	case <-time.After(50 * time.Millisecond):
	}
	close(block1)
	<-ran // home 1's worker picks it up after unblocking
	p.Close()
}

// TestPoolBurstWakesParkedStealer submits two items back to back to home 0
// while the workers of homes 0 and 1 are both parked; the first item blocks
// until the second has run. The second submit must wake the worker parked
// on home 1 to steal it: signalling home 0 again would wake nobody, since
// home 0's only worker is already woken, and the pool would hang.
func TestPoolBurstWakesParkedStealer(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		p := NewPool(2, []int{0, 1}, PoolOptions{})
		for parked := 0; parked < 2; {
			runtime.Gosched()
			p.mu.Lock()
			parked = p.parked
			p.mu.Unlock()
		}
		ran := make(chan struct{})
		done := make(chan struct{})
		p.Submit(0, 0, func() { <-ran; close(done) })
		p.Submit(0, 0, func() { close(ran) })
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
	p := NewPool(4, RoundRobinHomes(3, 4), PoolOptions{})
	var count atomic.Int64
	var wg sync.WaitGroup
	wg.Add(items)
	for i := 0; i < items; i++ {
		p.Submit(i%4, int64(i%7), func() { count.Add(1); wg.Done() })
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
	p := NewPool(1, []int{0}, PoolOptions{})
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(0, 0, func() { count.Add(1) })
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
