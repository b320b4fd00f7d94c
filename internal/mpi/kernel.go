package mpi

import (
	"fmt"
	"sync"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// rankKernel is one rank of one epoch: its share of the dataflow and every
// decision the rank loop makes about it, with no I/O. It feeds the external
// inputs and counts the input slots other ranks feed (start); drops
// duplicate ledgered messages by Seq, rejects messages for tasks not placed
// here and fills input slots, taking every task the moment its last input
// arrives (receive); applies the stop-after-failure rule, chooses replay or
// run from the ledger and decides where each output goes: a sink, a
// same-rank consumer — the slot's last one by pointer (§IV-A) — or a
// message to send (execute); and reports that no message is still due
// (done). It calls no transport, pool or goroutine: newly ready plan
// indices and outgoing messages are appended to scratch the caller owns,
// and on every error path everything the call held is released.
//
// A driver moves the data: runRank receives from the transport, hands ready
// tasks to the executor and sends the messages; a test runs every rank on
// one goroutine over in-memory links. The rank loop and the workers
// running the rank's tasks call the kernel concurrently: mu guards what
// they share, and the kernel never holds it while a callback runs or an
// output serializes; the driver calls the pool and the transport after
// the kernel returns, so their locks are never taken under it. start runs
// before any task does and abort after the last one; execute reads the
// window Take retired without the lock and takes it to hand outputs on.
type rankKernel struct {
	c    *Controller
	env  *runEnv // the epoch; the kernel reads its placement, ledgers and stop flag
	rank int
	led  *core.Ledger // nil outside ledgered runs

	mu     sync.Mutex
	st     *core.DataflowState
	seen   map[[2]uint64]bool // sender and Seq of the messages received; nil outside ledgered runs
	seq    uint64             // the last Seq the rank stamped
	remote int                // messages still due from other ranks
	sinks  []sinkOut          // in the order the tasks finished
}

// scratch is what the kernel's caller owns and its calls append to: the
// messages for other ranks and the plan indices made ready. After an
// error no message in msgs is live.
type scratch struct {
	msgs  []fabric.Message
	ready []int
}

// sinkOut is one payload a task of the rank put on a sink slot.
type sinkOut struct {
	id  core.TaskId
	pay core.Payload
}

// start makes k rank's kernel in the epoch env runs: it feeds the external
// inputs of the rank's tasks, counts the input slots other ranks feed and
// appends the tasks ready from the start to sc.ready.
func (k *rankKernel) start(c *Controller, env *runEnv, rank int, initial map[core.TaskId][]core.Payload, sc *scratch) error {
	p, local := c.Plan(), env.place.local[rank]
	*k = rankKernel{c: c, env: env, rank: rank, st: core.NewDataflowState(p, local)}
	if env.leds != nil {
		k.led, k.seen = env.leds[rank], make(map[[2]uint64]bool)
	}
	for _, i := range local {
		for _, src := range p.TaskAt(int(i)).Incoming {
			if j, ok := p.Index(src); ok && env.place.shardOf[j] != int32(rank) {
				k.remote++
			}
		}
		if p.Externals(int(i)) > 0 {
			for _, pay := range initial[p.TaskIds()[i]] {
				if err := k.st.Deliver(int(i), core.ExternalInput, pay); err != nil {
					return err
				}
			}
		}
		if _, ok := k.st.Take(int(i)); ok {
			sc.ready = append(sc.ready, int(i))
		}
	}
	return nil
}

// done reports that every message other ranks owe this rank arrived.
func (k *rankKernel) done() bool { return k.remote == 0 }

// receive takes delivery of messages from other ranks, clearing batch,
// and appends the tasks they make ready to sc.ready: a task is taken the
// moment its last input arrives. A redelivered duplicate (same sender,
// same Seq) of a ledgered run is dropped, as it would fill a second slot.
func (k *rankKernel) receive(batch []fabric.Message, sc *scratch) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	for j := range batch {
		m := &batch[j]
		if id := [2]uint64{uint64(m.From), m.Seq}; k.seen != nil && m.Seq != 0 {
			if k.seen[id] {
				release(batch[j : j+1])
				continue
			}
			k.seen[id] = true
		}
		i, ok := k.c.Plan().Index(m.Dest)
		if !ok || k.env.place.shardOf[i] != int32(k.rank) {
			err := fmt.Errorf("mpi: rank %d received message for non-local task %d", k.rank, m.Dest)
			release(batch[j:])
			return err
		}
		k.remote--
		if err := k.deliver(i, m.Src, m.Payload, sc); err != nil {
			release(batch[j:])
			return err
		}
		*m = fabric.Message{}
	}
	return nil
}

// deliver fills one input slot of task i and takes the task once ready.
// k.mu must be held.
func (k *rankKernel) deliver(i int, from core.TaskId, pay core.Payload, sc *scratch) error {
	if err := k.st.Deliver(i, from, pay); err != nil {
		return err
	}
	if _, ok := k.st.Take(i); ok {
		sc.ready = append(sc.ready, i)
	}
	return nil
}

// execute runs taken task i and hands its outputs on: sinks to the
// rank's sinks, same-rank consumers' inputs into their slots — appending
// the tasks that become ready to sc.ready — and the messages for other
// ranks to sc.msgs. Once the epoch stopped no task starts: the inputs are
// released and nothing is handed on. In a ledgered run a task whose
// outputs the ledger holds is replayed — the recorded wire forms go
// downstream without the callback — so a recovery epoch pays only for the
// undelivered frontier; a task a dead input cancels journals like a run,
// so a resumed run replays the cancellation instead of deciding it again.
func (k *rankKernel) execute(i int, sc *scratch) error {
	in := k.st.Inputs(i)
	// in is a window of st's arena, which outlives the task; it is cleared
	// only on return because a relay callback may return it as out.
	defer clear(in)
	if k.env.stopped.Load() {
		drop(in)
		return nil
	}
	t, obs, env := k.c.Plan().TaskAt(i), k.c.opt.Observer, k.env
	var out []core.Payload
	var attempt uint32
	var rec [][]byte
	replay := false
	if k.led != nil {
		rec, replay = k.led.Outputs(t.Id)
	}
	if replay {
		drop(in) // assembled only to satisfy readiness
		out = make([]core.Payload, len(rec))
		for s, b := range rec {
			out[s] = core.Buffer(append(make([]byte, 0, len(b)), b...))
		}
		k.led.CountReplay()
		if obs != nil {
			now := time.Now()
			obs.Observe(core.Event{Kind: core.TaskReplayed, Task: t.Id, Callback: t.Callback, Shard: core.ShardId(k.rank), Start: now, End: now, Epoch: env.num})
		}
	} else {
		if k.led != nil {
			attempt = uint32(k.led.BeginAttempt(t.Id))
		}
		var at time.Time
		if env.readyAt != nil {
			at = env.readyAt[i]
		}
		var err error
		out, _, err = core.Step(k.c.Registry(), obs, t, in, core.Event{Shard: core.ShardId(k.rank), Ready: at, Attempt: int(attempt), Epoch: env.num})
		if err != nil {
			drop(in) // still shared only if the callback was never reached
			return err
		}
		if k.led != nil {
			recordOutputs(k.led, t, out)
		}
	}
	return k.fanOut(i, t, attempt, out, sc)
}

// fanOut hands task i's outputs on, slot by slot, in the forms core.FanOut
// decides on — serialized without the lock: a consumer on this rank may get
// the output itself, every other consumer its wire form. rank is the task's
// home rank, never a stealing worker's, so routing follows placement and
// outputs never depend on the schedule. A message for another rank of a
// ledgered run carries the rank's next Seq, the receiver's dedup identity.
func (k *rankKernel) fanOut(i int, t core.Task, attempt uint32, out []core.Payload, sc *scratch) error {
	dest, shardOf := k.c.Plan().Consumers(i), k.env.place.shardOf
	for slot, consumers := range t.Outgoing {
		to := dest[:len(consumers)]
		dest = dest[len(consumers):]
		local := func(c int) bool { return !k.c.opt.AlwaysSerialize && int(shardOf[to[c]]) == k.rank }
		f, err := core.FanOut(out[slot], len(consumers), local)
		if err != nil {
			release(sc.msgs)
			drop(out[slot:])
			return fmt.Errorf("mpi: task %d output slot %d: %w", t.Id, slot, err)
		}
		k.mu.Lock()
		if len(consumers) == 0 {
			k.sinks = append(k.sinks, sinkOut{t.Id, out[slot]})
		}
		for c, id := range consumers {
			pay := f.To(c)
			if r := int(shardOf[to[c]]); r != k.rank {
				m := fabric.Message{From: k.rank, To: r, Src: t.Id, Dest: id, Payload: pay, Attempt: attempt}
				if k.seen != nil {
					k.seq++
					m.Seq = k.seq
				}
				sc.msgs = append(sc.msgs, m)
			} else if err = k.deliver(int(to[c]), t.Id, pay, sc); err != nil {
				k.mu.Unlock()
				// This consumer's payload and those of the consumers not
				// reached yet were never handed out.
				for j := c; j < len(consumers); j++ {
					f.To(j).Release()
				}
				release(sc.msgs)
				drop(out[slot+1:])
				return err
			}
		}
		k.mu.Unlock()
	}
	return nil
}

// abort releases the inputs delivered to the rank's tasks that never ran —
// what a failed epoch leaves in the rank. Call it once no task of the rank
// is running.
func (k *rankKernel) abort() {
	for _, i := range k.env.place.local[k.rank] {
		drop(k.st.Inputs(int(i)))
	}
}

// release releases the shared wire references of messages never handed
// on, and forgets them.
func release(ms []fabric.Message) {
	for k := range ms {
		ms[k].Payload.Release()
	}
	clear(ms)
}

// drop releases the shared wire references of payloads never handed to a
// callback, and forgets them.
func drop(ps []core.Payload) {
	for k := range ps {
		ps[k].Release()
	}
	clear(ps)
}
