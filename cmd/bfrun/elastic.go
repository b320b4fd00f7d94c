// Multi-process execution: every forked mode is a membership-gate session.
// The parent is the coordinator: it computes the serial reference, owns the
// gate (internal/wire Gate), forks one worker per -ranks, and verifies the
// union of the workers' sink digests against the reference — the paper's
// byte-identical-output guarantee, checked across process boundaries.
// Workers are ordinary bfrun invocations with the internal -wire-gate flag:
// each builds the same case from the catalog, joins the gate (which vets
// its graph fingerprint), follows per-epoch tickets — connect the epoch's
// rendezvous and run its logical rank with mpi.Controller.RunMember, which
// places the epoch over the ticket's member table as the in-process
// coordinator does — and reports status back. The parent keeps the member
// table in an mpi.Roster and decides every attempt with an mpi.Supervisor:
// the same membership and recovery rules mpi.RunElastic applies in process.
//
//	bfrun -case mergetree -runtime mpi -transport tcp -ranks 4
//	bfrun -faults -journal /tmp/bf-faults
//	bfrun -case register -journal /tmp/bf -kill-all-after 1 -ranks 4
//	bfrun -case register -resume /tmp/bf -ranks 4
//	bfrun -case mergetree -elastic -ranks 2 -join 2 -join-after 150ms \
//	      -drain 1 -drain-after 400ms -journal /tmp/bf-elastic
//
// A static run (-transport tcp, -journal, -resume) is the session with no
// joins and no drains: one epoch unless a member dies. A member whose
// process dies is evicted and the next epoch's tickets go out at once,
// naming it retired, so with -journal the survivors adopt its journaled
// lineage (without, its tasks re-execute). -journal makes every member
// journal its lineage under rank-<member>. -faults runs each case (every
// case unless -case is given; with -journal, each under its own
// subdirectory) with member -kill-rank's first-epoch transport dying after
// -kill-after inter-rank sends, whereupon its process exits; the run must
// lose that member, recover and match serial. -kill-all-after arms every
// member's transport instead, seeding a crash (a one-attempt budget) that a
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
// plans, the gate to join and, in an elastic run, the pace.
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
	if cfg.faults {
		args = append(args, "-faults", "-kill-rank", strconv.Itoa(cfg.killRank), "-kill-after", strconv.Itoa(cfg.killAfter))
	}
	if cfg.elastic {
		args = append(args, "-elastic", "-elastic-pace", cfg.pace.String())
	}
	return args
}

// convertIds converts a member table between the gate's ints and the
// roster's core.ShardId.
func convertIds[To, From ~int](ids []From) []To {
	out := make([]To, len(ids))
	for i, id := range ids {
		out[i] = To(id)
	}
	return out
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
	inj    *faultinject.Transport // the armed kill plan, if any
	cancel context.CancelFunc
	done   chan epochResult
	base   epochCounts // the ledger's counts when the epoch started
}

// epochCounts are the tasks a member replayed from its lineage and the
// callbacks it executed.
type epochCounts struct{ replayed, executed int }

// counts returns the ledger's counts since base.
func counts(led *core.Ledger, base epochCounts) epochCounts {
	return epochCounts{led.Replays() - base.replayed, led.Executions() - base.executed}
}

// gateSetup builds the case and an MPI controller initialized on the base
// task map — the INITIAL -ranks placement every process agrees on, which
// each epoch's rebalance diffs against — with the callbacks of an elastic
// run paced by -elastic-pace. Parent and workers share it so the gate vets
// joiners by the fingerprint the workers derive.
func gateSetup(cfg config) (usecase.Case, *mpi.Controller, error) {
	c, err := cfg.build()
	if err != nil {
		return c, nil, err
	}
	ctrl := mpi.New(mpi.WithJournal(cfg.journal)) // "" journals nothing; opened per member
	if err := ctrl.Initialize(c.Graph, c.Map(cfg.ranks)); err != nil {
		return c, nil, err
	}
	var reg core.CallbackRegistrar = ctrl
	if cfg.elastic {
		reg = wrappedRegistrar{ctrl, paced(cfg.pace)}
	}
	return c, ctrl, c.Register(reg)
}

// runGateWorker is one member process: join the gate, then follow tickets
// until released.
func runGateWorker(cfg config, stdout io.Writer) error {
	c, ctrl, err := gateSetup(cfg)
	if err != nil {
		return err
	}

	sess, err := wire.JoinGate(cfg.wireGate, ctrl.Fingerprint(), 30*time.Second)
	if err != nil {
		return fmt.Errorf("join gate: %w", err)
	}
	defer sess.Close()
	member := sess.Member()
	// Tells the parent which member this process is, should it die.
	fmt.Fprintf(stdout, "BFWIRE joined member=%d\n", member)

	// The member's lineage: journal-backed with -journal (restored on
	// start, synced at every fence, closed on drain/exit), in memory in an
	// elastic or -faults run without one (hand-offs then re-execute instead
	// of replaying), and none in a static run without one — its one epoch
	// hands nothing off.
	led := core.NewLedger()
	var store *journal.LedgerStore
	if cfg.journal != "" {
		if led, store, err = ctrl.OpenMemberLedger(member); err != nil {
			return fmt.Errorf("member %d: %w", member, err)
		}
	}
	lineage := led
	if cfg.journal == "" && !cfg.elastic && !cfg.faults {
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

	// last holds the counts of the last epoch the member completed or,
	// until it completes one, of the last it ran; the ledger's own counts
	// add up over every epoch.
	var last epochCounts
	completed := false
	var cur *epochRun
	settle := func(ok bool) {
		if ok || !completed {
			last, completed = counts(led, cur.base), ok
		}
		cur = nil
	}
	// fence ends the in-flight epoch, if any, because a newer ticket arrived.
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
		settle(false)
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
				if cfg.faults && cur.inj != nil && cur.inj.Killed() {
					// The -kill-rank victim dies as a crashed process
					// would: no status, no sinks, its journal left as is.
					return fmt.Errorf("member %d: killed by -kill-after %d in epoch %d", member, cfg.killAfter, cur.epoch)
				}
				if res.err != nil {
					// A collapsed epoch (a peer fenced, drained, or died, or
					// -kill-all-after fired) is not fatal: report it and wait
					// for the next ticket — the coordinator decides whether
					// the run is over.
					sess.Report(wire.Status{Epoch: cur.epoch, OK: false, Detail: res.err.Error()})
					settle(false)
					continue
				}
				lastOut = res.out
				n := counts(led, cur.base)
				sess.Report(wire.Status{Epoch: cur.epoch, OK: true,
					Detail: fmt.Sprintf("replayed=%d executed=%d", n.replayed, n.executed)})
				settle(true)
				continue
			}
		}

		switch t.Action {
		case wire.ActionRun:
			fence()
			base := counts(led, epochCounts{})
			if cur, err = startEpoch(cfg, ctrl, c.Initial, t, lineage); err != nil {
				return err
			}
			cur.base = base
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
			fmt.Fprintf(stdout, "BFWIRE member=%d epochs=%d restored=%d adopted=%d replayed=%d executed=%d\n",
				member, epochs, led.Restored(), led.Adopted(), last.replayed, last.executed)
			return printSinks(stdout, lastOut)
		default:
			return fmt.Errorf("member %d: unexpected ticket action %d", member, t.Action)
		}
	}
}

// startEpoch connects the ticket's rendezvous as the assigned logical rank
// and launches the rank's run over the ticket's member table; the run
// adopts the lineage of the members retired since the last epoch (their
// journals have no writer left: they reported their drain, or died). With
// -kill-all-after the member's transport dies after that many inter-rank
// sends, and so does the first-epoch transport of the -faults victim.
func startEpoch(cfg config, ctrl *mpi.Controller, initial map[core.TaskId][]core.Payload, t wire.Ticket, led *core.Ledger) (*epochRun, error) {
	fab, err := wire.Connect(wire.Options{
		Rank: t.Rank, Ranks: t.Ranks, Addr: t.Addr, Epoch: t.Epoch, Tier: cfg.tier,
		Fingerprint:       ctrl.Fingerprint(),
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("epoch %d rank %d: connect: %w", t.Epoch, t.Rank, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := &epochRun{epoch: t.Epoch, fab: fab, cancel: cancel, done: make(chan epochResult, 1)}
	var tr fabric.Transport = fab
	kill := cfg.killAll
	if cfg.faults && t.Epoch == 1 && t.Member == cfg.killRank {
		kill = cfg.killAfter
	}
	if kill >= 0 {
		run.inj = faultinject.Wrap(fab, t.Rank, faultinject.Plan{KillRank: t.Rank, KillAfter: kill, Delay: time.Millisecond})
		tr = run.inj
	}
	go func() {
		out, err := ctrl.RunMember(ctx, t.Rank, convertIds[core.ShardId](t.Members), convertIds[core.ShardId](t.Retired), tr, led, initial)
		if err == nil {
			if serr := fab.Shutdown(30 * time.Second); serr != nil {
				err = fmt.Errorf("shutdown: %w", serr)
			}
		}
		run.done <- epochResult{out, err}
	}()
	return run, nil
}

// runFaultCases runs -faults on the -case named, or on every case, each
// journaling (with -journal) under a subdirectory of its own so no case
// restores another's records.
func runFaultCases(cfg config, stdout io.Writer) error {
	cases := []string{"mergetree", "render", "register", "register-iter"}
	if cfg.caseSet {
		cases = []string{cfg.useCase}
	}
	root := cfg.journal
	for _, uc := range cases {
		cfg.useCase = uc
		if root != "" {
			cfg.journal = filepath.Join(root, uc)
		}
		if err := runGateParent(cfg, stdout); err != nil {
			return fmt.Errorf("%s: %w", uc, err)
		}
	}
	return nil
}

// runGateParent is the coordinator of every forked mode: gate, founding
// fleet, the epoch loop over the gate's event stream, then digest
// verification and the mode's summary line.
func runGateParent(cfg config, stdout io.Writer) error {
	switch { // what the members journal, and whether they crash
	case cfg.elastic || cfg.faults:
		cfg.killAll = -1
	case cfg.resume != "":
		cfg.journal, cfg.killAll = cfg.resume, -1
	}
	seed := cfg.killAll >= 0
	c, fpc, err := gateSetup(cfg)
	if err != nil {
		return err
	}
	fp := fpc.Fingerprint()
	// Serial reference digests (unpaced — the pace is a worker-side delay).
	want, err := referenceDigests(c)
	if err != nil {
		return err
	}

	gate, err := wire.NewGate("127.0.0.1:0", fp)
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

	roster, err := mpi.NewRoster(cfg.ranks)
	if err != nil {
		return err
	}
	sup := mpi.NewSupervisor(0) // the default retry budget
	if seed {
		sup = mpi.NewSupervisor(1) // the crash ends the run
	}
	var (
		founders, drains int // founders admitted; drains confirmed
		epoch            int
		table            []int        // the running attempt's member table; nil once decided
		reported         map[int]bool // members that reported on the running attempt
		crashed          int          // failed reports on it
		failure, giveUp  error        // the last of them; why the supervisor gave up

		admission                        = time.After(30 * time.Second)
		coalesce, backoff, drainDeadline <-chan time.Time
	)
	// next is an epoch boundary: the pending joins and drains apply in one
	// step, every drain target is told to drain, and once none is left
	// draining the next epoch's tickets go out, naming the members whose
	// drain was confirmed, or who were evicted, since the last epoch as
	// hand-off donors. A member that died since is skipped: its gone event
	// is on its way.
	next := func() error {
		_, drained := roster.Boundary()
		for _, d := range drained {
			if err := gate.SendTicket(int(d), wire.Ticket{Action: wire.ActionDrain, Member: int(d), Epoch: epoch + 1}); err != nil {
				return err
			}
		}
		if len(roster.Draining()) > 0 {
			drainDeadline = time.After(60 * time.Second)
			return nil
		}
		drainDeadline = nil
		members, donors := roster.Epoch()
		retired := convertIds[int](donors)
		table = convertIds[int](members)
		epoch++
		addr := filepath.Join(rdvDir, fmt.Sprintf("e%d.sock", epoch))
		for l, m := range table {
			t := wire.Ticket{Action: wire.ActionRun, Member: m, Epoch: epoch, Rank: l,
				Ranks: len(table), Addr: addr, Members: table, Retired: retired}
			if err := gate.SendTicket(m, t); err != nil && !errors.Is(err, wire.ErrMemberGone) {
				return err
			}
		}
		reported, crashed, failure = map[int]bool{}, 0, nil
		return nil
	}
	// fence abandons the running epoch for a membership request; whatever
	// else arrives in the next beat joins the same fence.
	fence := func() {
		if table != nil && coalesce == nil {
			coalesce = time.After(50 * time.Millisecond)
		}
	}
	// decide ends the running attempt with its outcome and acts on the
	// supervisor's step; it reports whether the session goes on.
	decide := func(o mpi.Outcome) (bool, error) {
		table, coalesce, backoff = nil, nil, nil
		step := sup.Decide(roster, o)
		switch {
		case !step.Next:
			giveUp = step.Err
			return false, nil
		case step.Backoff > 0:
			backoff = time.After(core.DefaultRetryPolicy().Backoff(step.Backoff))
			return true, nil
		}
		return true, next()
	}

	for running := true; running; {
		err = nil
		select {
		case err = <-timerErr:
		case <-admission:
			err = errors.New("initial workers never joined the gate")
		case <-drainDeadline:
			err = fmt.Errorf("member %d never reported its drain", roster.Draining()[0])
		case <-coalesce:
			running, err = decide(mpi.Outcome{Fenced: true})
		case <-backoff:
			backoff = nil
			err = next()
		case ev := <-gate.Events():
			st, id := ev.Status, core.ShardId(ev.Member)
			switch {
			case ev.Kind == wire.EventJoin && ev.Member < cfg.ranks:
				// A founder: the gate admits the first -ranks joiners as
				// members 0..ranks-1, the roster's founders.
				if founders++; founders == cfg.ranks {
					admission = nil
					armTimers()
					err = next()
				}
			case ev.Kind == wire.EventJoin:
				if err = roster.Join(id); err == nil {
					fence()
				}
			case ev.Kind == wire.EventDrain:
				// A drain the roster refuses (an unknown member, or the last
				// one) changes nothing.
				if roster.Drain(id) == nil {
					fence()
				}
			case ev.Kind == wire.EventGone && !roster.Retired(id):
				err = fmt.Errorf("member %d is gone (its process died or dropped the gate) during epoch %d", ev.Member, epoch)
				if epoch > 0 && slices.Contains(roster.Members(), id) {
					// A member of the running epoch: a loss. A founder
					// before the first epoch, a joiner or a draining
					// member fails the run.
					running, err = decide(mpi.Outcome{Lost: []core.ShardId{id}, Err: err})
				}
			case ev.Kind == wire.EventGone:
			// The rest are status reports.
			case st.OK && st.Detail == "drained":
				if roster.Drained(id) == nil {
					drains++
					if len(roster.Draining()) == 0 {
						err = next()
					}
				}
			case table == nil || st.Epoch != epoch || coalesce != nil || st.Detail == "fenced":
				// A report on an abandoned or decided attempt.
			default:
				if !st.OK {
					// The parent cannot see the error's type: every failed
					// status counts as retryable.
					crashed++
					failure = fmt.Errorf("member %d failed epoch %d: %s", ev.Member, st.Epoch, st.Detail)
				}
				if reported[ev.Member] = true; len(reported) == len(table) {
					running, err = decide(mpi.Outcome{Err: failure})
				}
			}
		}
		if err != nil {
			return err
		}
	}
	if giveUp != nil && !seed {
		return giveUp
	}
	stopTimers() // no joiner may be forked after the exits go out
	for _, m := range roster.Identities() {
		gate.SendTicket(int(m), wire.Ticket{Action: wire.ActionExit})
	}

	lost := sup.Lost()
	t := workers.wait(lost)
	elapsed := time.Since(start).Round(time.Millisecond)
	var restored, adopted, replayed, executed int
	for _, line := range t.records {
		fmt.Fprintln(stdout, line)
		var m, ep, re, ad, rp, ex int
		if _, err := fmt.Sscanf(line, "BFWIRE member=%d epochs=%d restored=%d adopted=%d replayed=%d executed=%d",
			&m, &ep, &re, &ad, &rp, &ex); err == nil {
			restored += re
			adopted += ad
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
	case cfg.faults:
		// The survivors' last epoch ran the whole graph: every task was
		// replayed from lineage or executed, once.
		ok = ok && replayed+executed == tasks
		status := "MATCH"
		if !ok {
			status = "MISMATCH"
		}
		fmt.Fprintf(stdout, "faults %-13s %d tasks over %d processes: %v  epochs=%d lost=%v adopted=%d replayed=%d executed=%d sinks=%d/%d %s\n",
			cfg.useCase, tasks, cfg.ranks, elapsed, epoch, lost, adopted, replayed, executed, matches, len(want), status)
		if ok && !slices.Contains(lost, core.ShardId(cfg.killRank)) {
			return fmt.Errorf("member %d was never lost: no fault fired (lower -kill-after)", cfg.killRank)
		}
	case cfg.elastic:
		fmt.Fprintf(stdout, "wire-elastic %-10s %d tasks: start=%d join=+%d drain=%d epochs=%d fences=%d %v  sinks=%d/%d match-serial=%v\n",
			cfg.useCase, tasks, cfg.ranks, cfg.join, drains, epoch, sup.Fences(), elapsed, matches, len(want), ok)
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
