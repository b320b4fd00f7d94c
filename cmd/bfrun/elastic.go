// Elastic multi-process execution: -elastic runs the workload across real
// OS processes whose membership CHANGES while the dataflow is in flight.
// The parent is the coordinator: it owns the membership gate (internal/wire
// Gate), forks the initial workers, and later forks joiners (-join /
// -join-after) and retires a member (-drain / -drain-after). Workers join
// the gate, follow per-epoch tickets — derive the epoch's task map from the
// ticket's member table with core.RebalanceShards, connect the epoch's
// rendezvous, run their logical rank — and report status back. A
// membership event mid-epoch fences the running epoch (liveness timers
// suspended, journals flushed) and the next ticket rebuilds the mesh over
// the new member set; handed-off lineage replays from the journals instead
// of re-executing.
//
//	bfrun -case mergetree -elastic -ranks 2 -join 2 -join-after 150ms \
//	      -drain 1 -drain-after 400ms -journal /tmp/bf-elastic
//
// The parent verifies the union of the final epoch's sink digests against
// an in-parent serial reference — elasticity must not change a byte.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/journal"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/usecase"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// paced interposes a fixed per-task delay before every callback, stretching
// the epoch so membership events provably land mid-run. The delay never
// touches payloads, so digests are unchanged.
func paced(delay time.Duration) func(core.CallbackId, core.Callback) core.Callback {
	return func(_ core.CallbackId, cb core.Callback) core.Callback {
		return func(in []core.Payload, t core.TaskId) ([]core.Payload, error) {
			time.Sleep(delay)
			return cb(in, t)
		}
	}
}

// epochResult is what one epoch attempt hands back to the worker loop.
type epochResult struct {
	out map[core.TaskId][]core.Payload
	err error
}

// epochRun tracks the worker's in-flight epoch so a newer ticket can fence
// it: suspend liveness, flush the journal, cancel, and wait for unwind.
type epochRun struct {
	epoch  int
	fab    *wire.Fabric
	cancel context.CancelFunc
	done   chan epochResult
}

// elasticSetup builds the case and an MPI controller initialized on the
// base task map — the INITIAL -ranks placement every process agrees on,
// which each epoch's rebalance diffs against — with the callbacks paced by
// -elastic-pace. Parent and workers share it so the gate vets joiners by
// the fingerprint the workers derive.
func elasticSetup(cfg config) (usecase.Case, core.TaskMap, *mpi.Controller, error) {
	c, err := cfg.build()
	if err != nil {
		return c, nil, nil, err
	}
	ctrl := mpi.New(mpi.WithJournal(cfg.journal)) // "" journals nothing; opened per member
	base := c.Map(cfg.ranks)
	if err := ctrl.Initialize(c.Graph, base); err != nil {
		return c, nil, nil, err
	}
	return c, base, ctrl, c.Register(wrappedRegistrar{ctrl, paced(cfg.pace)})
}

// runElasticWorker is one elastic member process: join the gate, then
// follow tickets until released.
func runElasticWorker(cfg config, stdout io.Writer) error {
	c, base, ctrl, err := elasticSetup(cfg)
	if err != nil {
		return err
	}

	sess, err := wire.JoinGate(cfg.wireGate, ctrl.Fingerprint(), 30*time.Second)
	if err != nil {
		return fmt.Errorf("join gate: %w", err)
	}
	defer sess.Close()
	member := sess.Member()

	// The member's durable lineage: restored on start, synced at every
	// fence, closed on drain/exit. Without -journal the ledger is
	// in-memory — hand-offs then re-execute instead of replaying.
	led := core.NewLedger()
	var store *journal.LedgerStore
	if cfg.journal != "" {
		if led, store, err = ctrl.OpenMemberLedger(member); err != nil {
			return fmt.Errorf("member %d: %w", member, err)
		}
	}

	tickets := make(chan wire.Ticket, 4)
	go func() {
		for {
			t, err := sess.NextTicket(0)
			if err != nil {
				// The coordinator is gone; unwind as if released so the
				// process never lingers as an orphan.
				tickets <- wire.Ticket{Action: wire.ActionExit}
				return
			}
			tickets <- t
		}
	}()

	// fence ends the in-flight epoch, if any, because a newer ticket arrived.
	var cur *epochRun
	fence := func() {
		if cur == nil {
			return
		}
		cur.fab.Fence(true)
		if store != nil {
			store.Sync()
		}
		cur.cancel()
		<-cur.done
		sess.Report(wire.Status{Epoch: cur.epoch, OK: false, Detail: "fenced"})
		cur = nil
	}

	var lastOut map[core.TaskId][]core.Payload
	epochs := 0
	for {
		var t wire.Ticket
		if cur == nil {
			t = <-tickets
		} else {
			select {
			case t = <-tickets:
			case res := <-cur.done:
				if res.err != nil {
					// A collapsed epoch (a peer fenced, drained, or died) is
					// not fatal: report it and wait for the next ticket —
					// the coordinator decides whether the run is over.
					sess.Report(wire.Status{Epoch: cur.epoch, OK: false, Detail: res.err.Error()})
					cur = nil
					continue
				}
				lastOut = res.out
				sess.Report(wire.Status{Epoch: cur.epoch, OK: true,
					Detail: fmt.Sprintf("replayed=%d executed=%d", led.Replays(), led.Executions())})
				cur = nil
				continue
			}
		}

		switch t.Action {
		case wire.ActionRun:
			fence()
			// The epoch's task map: the base map rebalanced over the ticket's
			// member table.
			members := make([]core.ShardId, len(t.Members))
			for i, m := range t.Members {
				members[i] = core.ShardId(m)
			}
			tmap, err := core.RebalanceShards(c.Graph, base, members)
			if err != nil {
				return fmt.Errorf("member %d: epoch %d: %w", member, t.Epoch, err)
			}
			// Adopt handed-off lineage from members retired since the last
			// epoch: their journals are closed (they reported their drain),
			// so replaying their completed work here is safe and durable.
			if store != nil {
				for _, donor := range t.Retired {
					dled, dstore, err := ctrl.OpenMemberLedger(donor)
					if err != nil {
						return fmt.Errorf("member %d: adopt from %d: %w", member, donor, err)
					}
					for _, id := range c.Graph.TaskIds() {
						if tmap.Shard(id) == core.ShardId(t.Rank) {
							led.Adopt(dled, id)
						}
					}
					dstore.Close()
				}
			}
			if cur, err = startEpoch(ctrl, localInputs(c.Initial, tmap, t.Rank), tmap, t, cfg.tier, led); err != nil {
				return err
			}
			epochs++
		case wire.ActionDrain:
			fence()
			if store != nil {
				store.Close()
				store = nil
			}
			sess.Report(wire.Status{Epoch: t.Epoch, OK: true, Detail: "drained"})
		case wire.ActionExit:
			fence()
			if store != nil {
				store.Close()
			}
			fmt.Fprintf(stdout, "BFWIRE elastic member=%d epochs=%d restored=%d replayed=%d executed=%d\n",
				member, epochs, led.Restored(), led.Replays(), led.Executions())
			return printSinks(stdout, lastOut)
		default:
			return fmt.Errorf("member %d: unexpected ticket action %d", member, t.Action)
		}
	}
}

// startEpoch connects the ticket's rendezvous as the assigned logical rank
// and launches the run over the epoch's task map.
func startEpoch(ctrl *mpi.Controller, local map[core.TaskId][]core.Payload, tmap core.TaskMap, t wire.Ticket, tier wire.Tier, led *core.Ledger) (*epochRun, error) {
	fab, err := wire.Connect(wire.Options{
		Rank: t.Rank, Ranks: t.Ranks, Addr: t.Addr, Epoch: t.Epoch, Tier: tier,
		Fingerprint:       ctrl.Fingerprint(),
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("epoch %d rank %d: connect: %w", t.Epoch, t.Rank, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := &epochRun{epoch: t.Epoch, fab: fab, cancel: cancel, done: make(chan epochResult, 1)}
	go func() {
		out, err := ctrl.RunMemberContext(ctx, t.Rank, fab, local, tmap, led)
		if err == nil {
			if serr := fab.Shutdown(30 * time.Second); serr != nil {
				err = fmt.Errorf("shutdown: %w", serr)
			}
		}
		run.done <- epochResult{out, err}
	}()
	return run, nil
}

// runElasticParent is the coordinator: gate, initial fleet, deferred joins
// and drain, per-epoch tickets, digest verification.
func runElasticParent(cfg config, stdout io.Writer) error {
	c, _, fpc, err := elasticSetup(cfg)
	if err != nil {
		return err
	}
	fp := fpc.Fingerprint()
	// Serial reference digests (unpaced — the pace is a worker-side delay).
	want, err := referenceDigests(c)
	if err != nil {
		return err
	}

	gate, err := wire.NewGate("127.0.0.1:0", 0, fp)
	if err != nil {
		return err
	}
	defer gate.Close()

	var workers fleet
	defer workers.kill()
	fork := func() error {
		return workers.fork(append(cfg.workerArgs(cfg.journal),
			"-wire-gate", gate.Addr(), "-elastic-pace", cfg.pace.String())...)
	}

	start := time.Now()
	for i := 0; i < cfg.ranks; i++ {
		if err := fork(); err != nil {
			return err
		}
	}
	// Initial fleet admission: the first `ranks` join events are the
	// founding member set.
	var members []int
	for len(members) < cfg.ranks {
		select {
		case ev := <-gate.Events():
			if ev.Kind == wire.KindJoin {
				members = append(members, ev.Member)
			}
		case <-time.After(30 * time.Second):
			return errors.New("initial workers never joined the gate")
		}
	}

	// Deferred membership changes, delivered through the gate like any
	// external joiner or drain request would be. Their failures surface in
	// the epoch loop through timerErr.
	timerErr := make(chan error, 2)
	defer time.AfterFunc(cfg.joinAfter, func() {
		for i := 0; i < cfg.join; i++ {
			if err := fork(); err != nil {
				timerErr <- err
				return
			}
		}
	}).Stop()
	if cfg.drain >= 0 {
		gateAddr := gate.Addr()
		defer time.AfterFunc(cfg.drainAfter, func() {
			if err := wire.RequestDrain(gateAddr, cfg.drain, fp, 10*time.Second); err != nil {
				timerErr <- fmt.Errorf("drain request: %w", err)
			}
		}).Stop()
	}

	// One status pump per admitted member; pumps for joiners start when
	// their join event is processed.
	statusCh := make(chan wire.Status, 64)
	pump := func(member int) {
		go func() {
			for {
				st, err := gate.AwaitStatus(member, 10*time.Minute)
				if err != nil {
					return
				}
				statusCh <- st
			}
		}()
	}
	for _, m := range members {
		pump(m)
	}

	admitted := append([]int(nil), members...)
	var drained, pendingJoin, pendingDrain []int
	epoch, fences := 0, 0
	running := true
	for running {
		// Integrate membership changes at the epoch boundary.
		members = append(members, pendingJoin...)
		pendingJoin = nil
		var retired []int
		for _, d := range pendingDrain {
			idx := slices.Index(members, d)
			if idx < 0 {
				continue // unknown or already drained: ignore
			}
			if err := gate.SendTicket(d, wire.Ticket{Action: wire.ActionDrain, Member: d, Epoch: epoch + 1}); err != nil {
				return err
			}
			deadline := time.After(60 * time.Second)
		drainWait:
			for {
				select {
				case st := <-statusCh:
					if st.Member == d && st.Detail == "drained" {
						break drainWait
					}
				case <-deadline:
					return fmt.Errorf("member %d never reported its drain", d)
				}
			}
			members = slices.Delete(members, idx, idx+1)
			retired = append(retired, d)
			drained = append(drained, d)
		}
		pendingDrain = nil
		slices.Sort(members)
		if len(members) == 0 {
			return errors.New("every member drained; nothing left to run the epoch")
		}

		epoch++
		addr, err := reserveLoopbackAddr()
		if err != nil {
			return err
		}
		for l, m := range members {
			t := wire.Ticket{Action: wire.ActionRun, Member: m, Epoch: epoch, Rank: l,
				Ranks: len(members), Addr: addr, Members: members, Retired: retired}
			if err := gate.SendTicket(m, t); err != nil {
				return err
			}
		}

		okSet := make(map[int]bool)
	epochWait:
		for {
			select {
			case err := <-timerErr:
				return err
			case ev := <-gate.Events():
				// A membership event mid-epoch: coalesce whatever arrives in
				// the next beat, then fence by issuing the next epoch.
				handleEvent := func(ev wire.Event) {
					switch ev.Kind {
					case wire.KindJoin:
						pendingJoin = append(pendingJoin, ev.Member)
						admitted = append(admitted, ev.Member)
						pump(ev.Member)
					case wire.KindDrain:
						pendingDrain = append(pendingDrain, ev.Member)
					}
				}
				handleEvent(ev)
				coalesce := time.After(50 * time.Millisecond)
			drainEvents:
				for {
					select {
					case ev := <-gate.Events():
						handleEvent(ev)
					case <-coalesce:
						break drainEvents
					}
				}
				fences++
				break epochWait
			case st := <-statusCh:
				if st.Epoch != epoch {
					continue // a stale fenced/OK report from an abandoned epoch
				}
				if !st.OK {
					if st.Detail == "fenced" {
						continue
					}
					return fmt.Errorf("member %d failed epoch %d: %s", st.Member, st.Epoch, st.Detail)
				}
				okSet[st.Member] = true
				if len(okSet) == len(members) {
					running = false
					break epochWait
				}
			}
		}
	}
	for _, m := range admitted {
		gate.SendTicket(m, wire.Ticket{Action: wire.ActionExit})
	}

	t := workers.wait()
	elapsed := time.Since(start)
	for _, line := range t.records {
		fmt.Fprintln(stdout, line)
	}
	matches, ok := judge(want, t.sinks, t.failed)
	fmt.Fprintf(stdout, "wire-elastic %-10s %d tasks: start=%d join=+%d drain=%d epochs=%d fences=%d %v  sinks=%d/%d match-serial=%v\n",
		cfg.useCase, c.Graph.Size(), cfg.ranks, cfg.join, len(drained), epoch, fences,
		elapsed.Round(time.Millisecond), matches, len(want), ok)
	return verdict(ok)
}
