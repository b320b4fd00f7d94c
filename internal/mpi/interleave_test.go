package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// The rank kernel's second driver: every rank of a graph on one goroutine,
// over in-memory FIFO queues, one per ordered pair of ranks. At every step
// a chooser picks the move — run one of a rank's ready tasks, or hand a
// rank the heads of its incoming queues — so one seed is one schedule,
// replayable step for step, and internal/check judges each.

// chooser picks one of n moves.
type chooser interface{ pick(n int) int }

type seeded struct{ r *rand.Rand }

func (c seeded) pick(n int) int { return c.r.Intn(n) }

// fuzzed reads the choices from fuzz bytes; once they run out it always
// picks the first move.
type fuzzed struct{ b []byte }

func (c *fuzzed) pick(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

var errInjected = errors.New("injected callback failure")

// Case modes: a plain run, a ledgered run whose messages are sometimes
// delivered twice, a ledgered run replaying part of a first run's ledger,
// and a run whose callbacks fail at a seeded invocation.
const (
	modePlain = iota
	modeDups
	modeReplay
	modeFail
	modes
)

// kernelCase is one seed's draw: a graph, its placement and callbacks, and
// what the run does beyond executing it.
type kernelCase struct {
	desc      string
	graph     core.TaskGraph
	tmap      core.TaskMap
	register  func(core.CallbackRegistrar) error
	initial   func() map[core.TaskId][]core.Payload
	mode      int
	serialize bool
	objects   int   // the mix outputs: 0 bytes, 1 frozen objects, 2 frozen objects with their bytes
	failAt    int64 // modeFail: the callback invocation that fails
	r         *rand.Rand
}

// drawCase draws seed's case: a random DAG, a graphs prototype or a
// core.Iterate unroll, over 1–4 ranks placed by the default map or dealt
// round-robin.
func drawCase(tb testing.TB, seed int64) kernelCase {
	r := rand.New(rand.NewSource(seed))
	kc := kernelCase{mode: r.Intn(modes), serialize: r.Intn(5) == 0, r: r}
	ranks := 1 + r.Intn(4)
	switch r.Intn(3) {
	case 0:
		g := check.RandomDAG(1+r.Intn(14), seed)
		kc.desc, kc.graph = fmt.Sprintf("random-dag(%d)", g.Size()), g
	case 1:
		var g core.TaskGraph
		var err error
		switch r.Intn(5) {
		case 0:
			g, err = graphs.NewReduction(8, 2)
		case 1:
			g, err = graphs.NewKWayMerge(9, 3)
		case 2:
			g, err = graphs.NewBroadcast(4, 2)
		case 3:
			g, err = graphs.NewBinarySwap(4)
		default:
			g, err = graphs.NewNeighbor2D(2, 2)
		}
		if err != nil {
			tb.Fatal(err)
		}
		kc.desc, kc.graph = fmt.Sprintf("%T(%d)", g, g.Size()), g
	default:
		w := loopWorkload(tb)
		kc.desc, kc.graph, kc.register, kc.initial = "iterate", w.graph, w.register, w.initial
	}
	if r.Intn(2) == 0 {
		kc.tmap = core.NewGraphMap(ranks, kc.graph)
	} else {
		kc.tmap = core.NewListMap(ranks, kc.graph.TaskIds())
	}
	kc.failAt = 1 + r.Int63n(int64(kc.graph.Size()))
	if kc.register == nil {
		kc.objects = max(r.Intn(4)-1, 0)
		kc.register, kc.initial = mixCallbacks(tb, kc.graph, kc.objects), func() map[core.TaskId][]core.Payload { return mixInputs(kc.graph) }
	}
	kc.desc = fmt.Sprintf("%s on %d rank(s), mode %d, serialize %v, objects %d", kc.desc, ranks, kc.mode, kc.serialize, kc.objects)
	return kc
}

// frozen is an 8-byte value as a core.Immutable object: every consumer on
// the producer's rank shares one pointer to it, and the others one fresh
// serialization.
type frozen struct{ b []byte }

func (*frozen) Immutable() {}

func (f *frozen) Serialize() []byte { return append(make([]byte, 0, len(f.b)), f.b...) }

// mixCallbacks binds every callback of g to a hash of the task id and its
// inputs, one 8-byte output per slot — a frozen object when objects > 0,
// which keeps the bytes in Data too when objects is 2; a task declaring
// branches keeps the branch its hash picks, so dead tokens flow in random
// DAGs too.
func mixCallbacks(tb testing.TB, g core.TaskGraph, objects int) func(core.CallbackRegistrar) error {
	p, err := core.Compile(g)
	if err != nil {
		tb.Fatal(err)
	}
	fn := func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		h := uint64(id)*0x9e3779b97f4a7c15 + 1
		for _, pay := range in {
			bs := pay.Data
			if f, ok := pay.Object.(*frozen); ok {
				bs = f.b
			}
			for _, b := range bs {
				h = (h ^ uint64(b)) * 0x100000001b3
			}
		}
		t, _ := p.Task(id)
		out := make([]core.Payload, len(t.Outgoing))
		for s := range out {
			out[s] = u64(h + uint64(s))
			switch objects {
			case 1:
				out[s] = core.Object(&frozen{out[s].Data})
			case 2:
				out[s].Object = &frozen{out[s].Data}
			}
		}
		if t.Branches > 0 {
			return core.SelectBranch(t, int(h>>33)%t.Branches, out)
		}
		return out, nil
	}
	return func(c core.CallbackRegistrar) error {
		for _, cb := range g.Callbacks() {
			if err := c.RegisterCallback(cb, fn); err != nil {
				return err
			}
		}
		return nil
	}
}

// mixInputs is one 8-byte payload per external input slot of g.
func mixInputs(g core.TaskGraph) map[core.TaskId][]core.Payload {
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range g.TaskIds() {
		t, _ := g.Task(id)
		for _, src := range t.Incoming {
			if src == core.ExternalInput {
				initial[id] = append(initial[id], u64(uint64(id)*31+uint64(len(initial[id]))))
			}
		}
	}
	return initial
}

// instrument wraps a registration: the callback invocation numbered failAt
// (counting from 1 across all callbacks; 0 for none) fails, and every
// input that arrives in an arena buffer is put in kept. The consumer that
// detaches the last reference to a shared fan-out copy keeps its arena
// buffer, and which consumer that is depends on the schedule. An arena
// buffer has a power-of-two capacity of at least 64 bytes and every
// payload here is shorter, so cap > len marks one.
func instrument(register func(core.CallbackRegistrar) error, failAt int64, kept map[*byte]bool) func(core.CallbackRegistrar) error {
	var calls int64
	return func(c core.CallbackRegistrar) error {
		return register(registrarFunc(func(cb core.CallbackId, fn core.Callback) error {
			return c.RegisterCallback(cb, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
				for _, p := range in {
					if cap(p.Data) > len(p.Data) {
						kept[&p.Data[:1][0]] = true
					}
				}
				if calls++; calls == failAt {
					return nil, errInjected
				}
				return fn(in, id)
			})
		}))
	}
}

type registrarFunc func(core.CallbackId, core.Callback) error

func (f registrarFunc) RegisterCallback(cb core.CallbackId, fn core.Callback) error { return f(cb, fn) }

// lateStarts is the Observer of an interleaved run: a check.Checker that
// also counts the tasks observed once the epoch stopped.
type lateStarts struct {
	check.Checker
	stopped *atomic.Bool
	late    int
}

func (o *lateStarts) Observe(e core.Event) {
	if o.stopped.Load() {
		o.late++
	}
	o.Checker.Observe(e)
}

// interleave runs every rank of c's epoch env on this goroutine, choosing
// each step with ch; with dups a ledgered message is sometimes delivered
// twice. It returns the sinks or the first failure, and a hash of the
// steps taken.
func interleave(c *Controller, env *runEnv, initial map[core.TaskId][]core.Payload, ch chooser, dups *rand.Rand) (map[core.TaskId][]core.Payload, uint64, error) {
	n := len(env.place.local)
	links := make([][][]fabric.Message, n) // links[from][to], FIFO
	scs := make([]scratch, n)              // each rank's ready tasks, and the messages a task just routed
	for r := range links {
		links[r] = make([][]fabric.Message, n)
	}
	trace := uint64(14695981039346656037)
	step := func(vs ...int) {
		for _, v := range vs {
			trace = (trace ^ uint64(v)) * 1099511628211
		}
	}
	// fail is env.fail with the transports' Cancel: queued messages are
	// dropped.
	fail := func(err error) {
		env.stopped.Store(true)
		env.Fail(err)
		for _, row := range links {
			for to, q := range row {
				release(q)
				row[to] = nil
			}
		}
	}
	for r := 0; r < n; r++ {
		if err := env.ranks[r].k.start(c, env, r, initial, &scs[r]); err != nil {
			fail(err)
		}
	}
	type move struct{ kind, a, b int }
	var moves []move
	for {
		moves = moves[:0]
		for r := range scs {
			if len(scs[r].ready) > 0 {
				moves = append(moves, move{0, r, 0})
			}
		}
		for from, row := range links {
			for to, q := range row {
				if len(q) > 0 {
					moves = append(moves, move{1, from, to})
				}
			}
		}
		if len(moves) == 0 {
			break
		}
		mv := moves[ch.pick(len(moves))]
		var err error
		switch r := mv.a; mv.kind {
		case 0: // run one of rank r's ready tasks
			sc := &scs[r]
			j := ch.pick(len(sc.ready))
			i := sc.ready[j]
			sc.ready[j] = sc.ready[len(sc.ready)-1]
			sc.ready = sc.ready[:len(sc.ready)-1]
			step(0, r, i)
			err = env.ranks[r].k.execute(i, sc)
			for _, m := range sc.msgs {
				if err != nil || env.stopped.Load() {
					m.Payload.Release()
					continue
				}
				links[r][m.To] = append(links[r][m.To], m)
				if dups != nil && dups.Intn(4) == 0 {
					cp, cerr := m.Payload.CloneForWire()
					if cerr != nil {
						panic(cerr)
					}
					m.Payload = cp
					links[r][m.To] = append(links[r][m.To], m)
				}
			}
			clear(sc.msgs)
			sc.msgs = sc.msgs[:0]
		case 1: // hand rank b the first messages queued from rank a
			q := links[r][mv.b]
			take := 1 + ch.pick(min(len(q), 3))
			step(1, r, mv.b, take)
			links[r][mv.b] = q[take:]
			err = env.ranks[mv.b].k.receive(q[:take], &scs[mv.b])
		}
		if err != nil {
			fail(err)
		}
	}
	for r := 0; r < n; r++ {
		k := &env.ranks[r].k
		if env.stopped.Load() {
			k.abort()
		} else if !k.done() {
			env.Fail(fmt.Errorf("rank %d stalled with %d message(s) due", r, k.remote))
		}
		for _, s := range k.sinks {
			env.Sink(s.id, s.pay)
		}
	}
	sinks, err := env.Result()
	return sinks, trace, err
}

// runKernelCase draws seed's case, runs it interleaved with schedule ch
// and checks it: on success, sinks byte-identical to serial's, every task
// run or replayed exactly once (a ledger accounting for each, every
// pre-recorded task replayed); on failure, the injected error and no task
// started after the stop; either way, no arena buffer outstanding but the
// ones a consumer kept. It returns the trace of the checked run.
func runKernelCase(tb testing.TB, seed int64, ch chooser) uint64 {
	tb.Helper()
	kc := drawCase(tb, seed)
	ref := check.Serial(tb, kc.graph, kc.register, kc.initial())
	failAt := int64(0)
	if kc.mode == modeFail {
		failAt = kc.failAt
	}
	kept := map[*byte]bool{}
	register := instrument(kc.register, failAt, kept)
	obs := &lateStarts{}
	c := New(WithObserver(obs), WithAlwaysSerialize(kc.serialize))
	if err := c.Initialize(kc.graph, kc.tmap); err != nil {
		tb.Fatalf("%s: %v", kc.desc, err)
	}
	if err := register(c); err != nil {
		tb.Fatal(err)
	}
	n := len(c.place.local)
	newEnv := func(leds []*core.Ledger) *runEnv {
		env := &runEnv{place: c.place, ranks: make([]rankState, n)}
		env.Cancel = func() {}
		if leds != nil {
			env.leds = leds
		}
		obs.stopped = &env.stopped
		return env
	}
	newLedgers := func() []*core.Ledger {
		leds := make([]*core.Ledger, n)
		for r := range leds {
			leds[r] = core.NewLedger()
		}
		return leds
	}
	var leds []*core.Ledger
	var dups *rand.Rand
	recorded := 0
	switch kc.mode {
	case modeDups:
		leds, dups = newLedgers(), kc.r
	case modeReplay:
		// A first ledgered run records every task; the checked run starts
		// from a random part of its ledgers.
		first := newLedgers()
		if _, _, err := interleave(c, newEnv(first), kc.initial(), ch, nil); err != nil {
			tb.Fatalf("%s: recording run: %v", kc.desc, err)
		}
		obs.Checker.Aborted(tb, check.Epochs{})
		leds = newLedgers()
		for i, id := range c.Plan().TaskIds() {
			if kc.r.Intn(2) == 0 && leds[c.place.shardOf[i]].Adopt(first[c.place.shardOf[i]], id) {
				recorded++
			}
		}
	}
	clear(kept)
	core.ArenaAccounting(true)
	defer core.ArenaAccounting(false)
	got, trace, err := interleave(c, newEnv(leds), kc.initial(), ch, dups)
	arena := core.ArenaOutstanding()
	switch {
	case err == nil:
		obs.Run(tb, ref, got)
		if leds != nil {
			var replayed, executed int
			for _, l := range leds {
				replayed, executed = replayed+l.Replays(), executed+l.Executions()
			}
			if replayed+executed != ref.Tasks || replayed != recorded {
				tb.Errorf("%s: replayed %d + executed %d, want %d recorded + the rest of %d tasks", kc.desc, replayed, executed, recorded, ref.Tasks)
			}
		}
	case kc.mode == modeFail && errors.Is(err, errInjected):
		obs.Aborted(tb, check.Epochs{})
		if obs.late > 0 {
			tb.Errorf("%s: %d task(s) observed after the stop", kc.desc, obs.late)
		}
	default:
		tb.Errorf("%s: %v", kc.desc, err)
	}
	if arena != int64(len(kept)) {
		tb.Errorf("%s: %d arena buffer(s) outstanding, %d kept by consumers", kc.desc, arena, len(kept))
	}
	return trace
}

// kernelSeeds is how many schedules TestRankKernelInterleavings checks;
// the race detector's slowdown gets a smaller count.
func kernelSeeds() int64 {
	if raceEnabled {
		return 1000
	}
	return 10000
}

// TestRankKernelInterleavings checks the rank kernel under thousands of
// seeded schedules (see runKernelCase). A failing seed is one subtest; its
// log names the command that replays it.
func TestRankKernelInterleavings(t *testing.T) {
	start, ran := time.Now(), 0
	for seed := int64(1); seed <= kernelSeeds(); seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ran++
			runKernelCase(t, seed, seeded{rand.New(rand.NewSource(^seed))})
			if t.Failed() {
				t.Logf("repro: go test -run 'TestRankKernelInterleavings/^%d$' ./internal/mpi", seed)
			}
		})
	}
	t.Logf("%d schedules in %v", ran, time.Since(start).Round(time.Millisecond))
}

// TestRankKernelReplayable runs one seed of every mode 100 times: the step
// trace must never change.
func TestRankKernelReplayable(t *testing.T) {
	found := map[int]bool{}
	for seed := int64(1); len(found) < modes; seed++ {
		mode := drawCase(t, seed).mode
		if found[mode] {
			continue
		}
		found[mode] = true
		want := runKernelCase(t, seed, seeded{rand.New(rand.NewSource(^seed))})
		for run := 0; run < 100; run++ {
			if got := runKernelCase(t, seed, seeded{rand.New(rand.NewSource(^seed))}); got != want {
				t.Fatalf("seed %d, run %d: step trace %x, first run %x", seed, run, got, want)
			}
		}
	}
}

// FuzzRankKernel searches interleavings with coverage guidance: the seed
// draws the case, the fuzz bytes are the schedule's choices.
func FuzzRankKernel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		sched := make([]byte, 64)
		binary.LittleEndian.PutUint64(sched, uint64(seed)*0x9e3779b97f4a7c15)
		f.Add(seed, sched)
	}
	f.Fuzz(func(t *testing.T, seed int64, sched []byte) {
		runKernelCase(t, seed, &fuzzed{sched})
	})
}
