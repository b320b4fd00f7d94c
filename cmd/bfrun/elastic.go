// Multi-process execution: every forked mode is a membership-gate session.
// The parent is the coordinator: it computes the serial reference, owns the
// gate (internal/wire Gate), forks one worker per -ranks, and verifies the
// union of the workers' sink digests against the reference — the paper's
// byte-identical-output guarantee, checked across process boundaries.
// Workers are ordinary bfrun invocations with the internal -wire-gate flag:
// each builds the same case from the catalog, joins the gate (which vets
// its graph fingerprint), follows per-epoch tickets — derive the epoch's
// task map from the ticket's member table with core.RebalanceShards,
// connect the epoch's rendezvous, run its logical rank — and reports status
// back.
//
//	bfrun -case mergetree -runtime mpi -transport tcp -ranks 4
//	bfrun -case register -journal /tmp/bf -kill-all-after 1 -ranks 4
//	bfrun -case register -resume /tmp/bf -ranks 4
//	bfrun -case mergetree -elastic -ranks 2 -join 2 -join-after 150ms \
//	      -drain 1 -drain-after 400ms -journal /tmp/bf-elastic
//
// A static run (-transport tcp, -journal, -resume) is the session with no
// joins and no drains: one epoch. -journal makes every member journal its
// lineage under rank-<member>; -kill-all-after arms every member's
// transport to die after that many inter-rank sends, seeding a crash a
// later -resume restarts from the journals. -elastic changes membership
// while the dataflow is in flight: joiners are forked after -join-after,
// member -drain is retired after -drain-after, and each burst of requests
// fences the running epoch (liveness timers suspended, journals flushed)
// so the next ticket rebuilds the mesh over the new member set; handed-off
// lineage replays from the journals instead of re-executing.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
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

// workerArgs is the command line of every forked member: the case
// parameters that make it build the parent's graph, its journal and kill
// plan, the gate to join and, in an elastic run, the pace.
func (cfg config) workerArgs(gate string) []string {
	args := []string{
		"-case", cfg.useCase,
		"-n", strconv.Itoa(cfg.n),
		"-blocks", strconv.Itoa(cfg.blocks),
		"-ranks", strconv.Itoa(cfg.ranks),
		"-wire-tier", cfg.tierName,
		"-journal", cfg.journal,
		"-kill-all-after", strconv.Itoa(cfg.killAll),
		"-wire-gate", gate,
	}
	if cfg.elastic {
		args = append(args, "-elastic", "-elastic-pace", cfg.pace.String())
	}
	return args
}

// localInputs is the part of the external inputs the map places on rank.
func localInputs(initial map[core.TaskId][]core.Payload, tmap core.TaskMap, rank int) map[core.TaskId][]core.Payload {
	local := make(map[core.TaskId][]core.Payload)
	for id, ps := range initial {
		if tmap.Shard(id) == core.ShardId(rank) {
			local[id] = ps
		}
	}
	return local
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

// gateSetup builds the case and an MPI controller initialized on the base
// task map — the INITIAL -ranks placement every process agrees on, which
// each epoch's rebalance diffs against — with the callbacks of an elastic
// run paced by -elastic-pace. Parent and workers share it so the gate vets
// joiners by the fingerprint the workers derive.
func gateSetup(cfg config) (usecase.Case, core.TaskMap, *mpi.Controller, error) {
	c, err := cfg.build()
	if err != nil {
		return c, nil, nil, err
	}
	ctrl := mpi.New(mpi.WithJournal(cfg.journal)) // "" journals nothing; opened per member
	base := c.Map(cfg.ranks)
	if err := ctrl.Initialize(c.Graph, base); err != nil {
		return c, nil, nil, err
	}
	var reg core.CallbackRegistrar = ctrl
	if cfg.elastic {
		reg = wrappedRegistrar{ctrl, paced(cfg.pace)}
	}
	return c, base, ctrl, c.Register(reg)
}

// runGateWorker is one member process: join the gate, then follow tickets
// until released.
func runGateWorker(cfg config, stdout io.Writer) error {
	c, base, ctrl, err := gateSetup(cfg)
	if err != nil {
		return err
	}

	sess, err := wire.JoinGate(cfg.wireGate, ctrl.Fingerprint(), 30*time.Second)
	if err != nil {
		return fmt.Errorf("join gate: %w", err)
	}
	defer sess.Close()
	member := sess.Member()

	// The member's lineage: journal-backed with -journal (restored on
	// start, synced at every fence, closed on drain/exit), in memory in an
	// elastic run without one (hand-offs then re-execute instead of
	// replaying), and none in a static run without one — its one epoch
	// hands nothing off.
	led := core.NewLedger()
	var store *journal.LedgerStore
	if cfg.journal != "" {
		if led, store, err = ctrl.OpenMemberLedger(member); err != nil {
			return fmt.Errorf("member %d: %w", member, err)
		}
	}
	lineage := led
	if cfg.journal == "" && !cfg.elastic {
		lineage = nil
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
					// A collapsed epoch (a peer fenced, drained, or died, or
					// -kill-all-after fired) is not fatal: report it and wait
					// for the next ticket — the coordinator decides whether
					// the run is over.
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
			// member table, on the plan Initialize compiled.
			members := make([]core.ShardId, len(t.Members))
			for i, m := range t.Members {
				members[i] = core.ShardId(m)
			}
			tmap, err := core.RebalanceShards(ctrl.Plan(), base, members)
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
					for _, id := range ctrl.Plan().TaskIds() {
						if tmap.Shard(id) == core.ShardId(t.Rank) {
							led.Adopt(dled, id)
						}
					}
					dstore.Close()
				}
			}
			if cur, err = startEpoch(cfg, ctrl, localInputs(c.Initial, tmap, t.Rank), tmap, t, lineage); err != nil {
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
			fmt.Fprintf(stdout, "BFWIRE member=%d epochs=%d restored=%d replayed=%d executed=%d\n",
				member, epochs, led.Restored(), led.Replays(), led.Executions())
			return printSinks(stdout, lastOut)
		default:
			return fmt.Errorf("member %d: unexpected ticket action %d", member, t.Action)
		}
	}
}

// startEpoch connects the ticket's rendezvous as the assigned logical rank
// and launches the run over the epoch's task map. With -kill-all-after the
// member's transport dies after that many inter-rank sends.
func startEpoch(cfg config, ctrl *mpi.Controller, local map[core.TaskId][]core.Payload, tmap core.TaskMap, t wire.Ticket, led *core.Ledger) (*epochRun, error) {
	fab, err := wire.Connect(wire.Options{
		Rank: t.Rank, Ranks: t.Ranks, Addr: t.Addr, Epoch: t.Epoch, Tier: cfg.tier,
		Fingerprint:       ctrl.Fingerprint(),
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("epoch %d rank %d: connect: %w", t.Epoch, t.Rank, err)
	}
	var tr fabric.Transport = fab
	if cfg.killAll >= 0 {
		tr = faultinject.Wrap(fab, t.Rank, faultinject.Plan{
			KillRank:  t.Rank,
			KillAfter: cfg.killAll,
			Delay:     time.Millisecond,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := &epochRun{epoch: t.Epoch, fab: fab, cancel: cancel, done: make(chan epochResult, 1)}
	go func() {
		out, err := ctrl.RunMemberContext(ctx, t.Rank, tr, local, tmap, led)
		if err == nil {
			if serr := fab.Shutdown(30 * time.Second); serr != nil {
				err = fmt.Errorf("shutdown: %w", serr)
			}
		}
		run.done <- epochResult{out, err}
	}()
	return run, nil
}

// runGateParent is the coordinator of every forked mode: gate, founding
// fleet, the epoch loop over the gate's event stream, then digest
// verification and the mode's summary line.
func runGateParent(cfg config, stdout io.Writer) error {
	switch { // what the members journal, and whether they crash
	case cfg.elastic:
		cfg.killAll = -1
	case cfg.resume != "":
		cfg.journal, cfg.killAll = cfg.resume, -1
	}
	seed := cfg.killAll >= 0
	c, _, fpc, err := gateSetup(cfg)
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
	// Each epoch's rendezvous is a unix socket in a directory only this
	// parent names, so no other bind can take the address between the
	// ticket and logical rank 0's listen.
	rdvDir, err := os.MkdirTemp("", "bfrun-rdv-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rdvDir)

	var workers fleet
	defer workers.kill()
	args := cfg.workerArgs(gate.Addr())
	start := time.Now()
	for i := 0; i < cfg.ranks; i++ {
		if err := workers.fork(args...); err != nil {
			return err
		}
	}

	// Deferred membership changes of an elastic run, armed once the
	// founders are in and delivered through the gate like any external
	// joiner or drain request would be. Their failures surface in the loop
	// through timerErr.
	timerErr := make(chan error, 2)
	var timers []*time.Timer
	stopTimers := func() {
		for _, t := range timers {
			t.Stop()
		}
	}
	defer stopTimers()
	armTimers := func() {
		if !cfg.elastic {
			return
		}
		timers = append(timers, time.AfterFunc(cfg.joinAfter, func() {
			for i := 0; i < cfg.join; i++ {
				if err := workers.fork(args...); err != nil {
					timerErr <- err
					return
				}
			}
		}))
		if cfg.drain >= 0 {
			timers = append(timers, time.AfterFunc(cfg.drainAfter, func() {
				if err := wire.RequestDrain(gate.Addr(), cfg.drain, fp, 10*time.Second); err != nil {
					timerErr <- fmt.Errorf("drain request: %w", err)
				}
			}))
		}
	}

	var (
		members, admitted []int // the epoch's members (sorted: logical rank = index); everyone ever admitted
		joins, drains     []int // requests not yet folded into an epoch
		draining, retired []int // drain tickets awaiting "drained"; donors for the next epoch
		drained           []int // retired for good: their loss is harmless
		epoch, fences     int
		fenced            bool         // the running epoch is abandoned for a membership change
		reported          map[int]bool // members that reported on the running epoch
		crashed           int          // failed reports on it (a -kill-all-after seed)

		admission               = time.After(30 * time.Second)
		coalesce, drainDeadline <-chan time.Time
	)
	// next folds the pending requests in at an epoch boundary: joiners
	// enter, every drain target is told to drain, and once none is left
	// draining the next epoch's tickets go out.
	next := func() error {
		members = append(members, joins...)
		joins = nil
		for _, d := range drains {
			if !slices.Contains(members, d) || slices.Contains(draining, d) {
				continue // unknown or already draining: ignore
			}
			if err := gate.SendTicket(d, wire.Ticket{Action: wire.ActionDrain, Member: d, Epoch: epoch + 1}); err != nil {
				return err
			}
			draining = append(draining, d)
		}
		drains = nil
		if len(draining) > 0 {
			drainDeadline = time.After(60 * time.Second)
			return nil
		}
		drainDeadline = nil
		slices.Sort(members)
		if len(members) == 0 {
			return errors.New("every member drained; nothing left to run the epoch")
		}
		epoch++
		addr := filepath.Join(rdvDir, fmt.Sprintf("e%d.sock", epoch))
		for l, m := range members {
			t := wire.Ticket{Action: wire.ActionRun, Member: m, Epoch: epoch, Rank: l,
				Ranks: len(members), Addr: addr, Members: members, Retired: retired}
			if err := gate.SendTicket(m, t); err != nil {
				return err
			}
		}
		retired, fenced, reported, crashed = nil, false, map[int]bool{}, 0
		return nil
	}
	// fence abandons the running epoch for a membership request; whatever
	// else arrives in the next beat joins the same fence.
	fence := func() {
		if epoch > 0 && !fenced {
			fenced, fences = true, fences+1
			coalesce = time.After(50 * time.Millisecond)
		}
	}

	for running := true; running; {
		err = nil
		select {
		case err = <-timerErr:
		case <-admission:
			err = errors.New("initial workers never joined the gate")
		case <-drainDeadline:
			err = fmt.Errorf("member %d never reported its drain", draining[0])
		case <-coalesce:
			coalesce = nil
			err = next()
		case ev := <-gate.Events():
			st := ev.Status
			switch {
			case ev.Kind == wire.EventJoin && epoch == 0 && len(members) < cfg.ranks:
				// A founder: the first -ranks joins are the founding member set.
				admitted = append(admitted, ev.Member)
				if members = append(members, ev.Member); len(members) == cfg.ranks {
					admission = nil
					armTimers()
					err = next()
				}
			case ev.Kind == wire.EventJoin:
				admitted = append(admitted, ev.Member)
				joins = append(joins, ev.Member)
				fence()
			case ev.Kind == wire.EventDrain:
				drains = append(drains, ev.Member)
				fence()
			case ev.Kind == wire.EventGone:
				if !slices.Contains(drained, ev.Member) {
					err = fmt.Errorf("member %d is gone (its process died or dropped the gate) during epoch %d", ev.Member, epoch)
				}
			// The rest are status reports.
			case st.OK && st.Detail == "drained":
				if i := slices.Index(draining, ev.Member); i >= 0 {
					draining = slices.Delete(draining, i, i+1)
					members = slices.DeleteFunc(members, func(m int) bool { return m == ev.Member })
					retired = append(retired, ev.Member)
					drained = append(drained, ev.Member)
					if len(draining) == 0 {
						err = next()
					}
				}
			case st.Epoch != epoch || fenced || st.Detail == "fenced":
				// A report on an abandoned epoch.
			case !st.OK && !seed:
				err = fmt.Errorf("member %d failed epoch %d: %s", ev.Member, st.Epoch, st.Detail)
			default:
				if !st.OK {
					crashed++
				}
				reported[ev.Member] = true
				running = len(reported) < len(members)
			}
		}
		if err != nil {
			return err
		}
	}
	stopTimers() // no joiner may be forked after the exits go out
	for _, m := range admitted {
		gate.SendTicket(m, wire.Ticket{Action: wire.ActionExit})
	}

	t := workers.wait()
	elapsed := time.Since(start).Round(time.Millisecond)
	var restored, replayed, executed int
	for _, line := range t.records {
		fmt.Fprintln(stdout, line)
		var m, ep, re, rp, ex int
		if _, err := fmt.Sscanf(line, "BFWIRE member=%d epochs=%d restored=%d replayed=%d executed=%d",
			&m, &ep, &re, &rp, &ex); err == nil {
			restored += re
			replayed += rp
			executed += ex
		}
	}

	tasks := c.Graph.Size()
	if seed {
		// Seed phase of a checkpoint/restart exercise: the job must have
		// crashed with journaled progress for -resume to have work to do.
		fmt.Fprintf(stdout, "wire-journal seed %-10s %d tasks over %d processes: %v  crashed_ranks=%d/%d journaled_executions=%d -> resume with -resume %s\n",
			cfg.useCase, tasks, cfg.ranks, elapsed, crashed, cfg.ranks, executed, cfg.journal)
		if crashed == 0 || executed == 0 {
			return fmt.Errorf("seed run did not crash with journaled progress")
		}
		return nil
	}
	matches, ok := judge(want, t.sinks, t.failed)
	switch {
	case cfg.elastic:
		fmt.Fprintf(stdout, "wire-elastic %-10s %d tasks: start=%d join=+%d drain=%d epochs=%d fences=%d %v  sinks=%d/%d match-serial=%v\n",
			cfg.useCase, tasks, cfg.ranks, cfg.join, len(drained), epoch, fences, elapsed, matches, len(want), ok)
	case cfg.resume != "":
		// A restart must prove it resumed rather than recomputed: journals
		// carried completed tasks in, every one of them replayed, and
		// replays + executions account for exactly the whole graph.
		ok = ok && restored > 0 && replayed == restored && replayed+executed == tasks
		fmt.Fprintf(stdout, "wire-resume %-10s %d tasks over %d processes: %v  sinks=%d/%d restored=%d replayed=%d executed=%d match-serial=%v\n",
			cfg.useCase, tasks, cfg.ranks, elapsed, matches, len(want), restored, replayed, executed, ok)
	default:
		fmt.Fprintf(stdout, "wire %-10s %d tasks over %d processes: %v  sinks=%d/%d match-serial=%v\n",
			cfg.useCase, tasks, cfg.ranks, elapsed, matches, len(want), ok)
	}
	return verdict(ok)
}
