package mpi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// ConnectFunc builds the per-rank transports of one recovery epoch. It is
// called with the epoch number (1 = the failure-free first attempt) and the
// number of surviving ranks; it returns one transport per logical rank,
// all connected to each other (for the wire transport: a fresh mesh whose
// handshake carries the epoch, so stragglers from a previous epoch are
// rejected at rendezvous).
type ConnectFunc func(epoch, ranks int) ([]fabric.Transport, error)

// InjectFunc optionally wraps a rank's transport — the hook the
// deterministic fault-injection harness (internal/faultinject) plugs into.
type InjectFunc func(epoch, rank int, tr fabric.Transport) fabric.Transport

// maxFences bounds membership-fence rebuilds of one supervised run. Fenced
// epochs do not consume the retry budget — a retry is a failure, a fence is
// a request — but runaway churn must still terminate.
const maxFences = 32

// supervise is the one loop around epoch for fault-tolerant runs. Per
// iteration it applies the pending membership changes in ONE epoch bump,
// rebalances the placement over the members (Plan.Rebalance), hands
// the lineage of every task that changed owner to the new owner's ledger,
// runs one attempt, and decides: done; fenced by a membership change
// (rebuild, no backoff, no budget); members lost (evict them, retry);
// partitioned or timed out (retry in place); non-retryable (give up);
// budget exhausted (give up). Ledgers are keyed by stable member identity
// and live as long as the loop, so they survive renumbering across epochs
// — and, when journaled, process restarts.
//
// A nil ms runs over a private membership of the Initialize map's shards.
func (c *Controller) supervise(ctx context.Context, ms *Membership, connect ConnectFunc, inject InjectFunc, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, ElasticReport, error) {
	var rep ElasticReport
	if connect == nil {
		return nil, rep, fmt.Errorf("mpi: fault-tolerant runs require a Connect function")
	}
	if err := c.preflight(c.place, allRanks, initial); err != nil {
		return nil, rep, err
	}
	if ms == nil {
		var err error
		if ms, err = NewMembership(len(c.place.local)); err != nil {
			return nil, rep, err
		}
	}
	policy := c.opt.Retry.WithDefaults()
	ledgers := c.newLedgerTable()
	defer ledgers.close()
	s := &supervision{c: c, ms: ms, connect: connect, inject: inject, initial: initial, policy: policy, ledgers: ledgers, rep: &rep}

	// prevOwner tracks each task's owner (member identity, by plan index)
	// as of the last epoch map, the baseline hand-off diffs against. Before
	// the first epoch the base map's shard ids ARE member identities.
	ids := c.Plan().TaskIds()
	prevOwner := make([]core.ShardId, len(ids))
	for i, r := range c.place.shardOf {
		prevOwner[i] = core.ShardId(r)
	}

	var recoveryStart time.Time
	var lastErr error
	failures := 0
	for epoch := 1; ; epoch++ {
		rep.Epochs = epoch
		if ctx.Err() != nil {
			return nil, rep, core.Cancelled(ctx)
		}

		joins, drains, joinAt, drainAt := ms.take()
		rep.Joined = append(rep.Joined, joins...)
		rep.Drained = append(rep.Drained, drains...)
		members := ms.Members()
		if len(members) == 0 {
			return nil, rep, fmt.Errorf("mpi: every member lost: %w", core.ErrRetriesExhausted)
		}
		dest, err := c.Plan().Rebalance(c.place.shardOf, len(c.place.local), members)
		if err != nil {
			return nil, rep, err
		}
		pl := newPlacement(len(members), dest)
		leds := make([]*core.Ledger, len(members))
		for l, id := range members {
			if leds[l], err = ledgers.open(id); err != nil {
				return nil, rep, err
			}
		}
		// Hand-off: every recorded task whose owner changed is adopted into
		// the new owner's ledger (journaled when backed), BEFORE the epoch
		// runs — the group-commit flush happened at the fence, so the
		// transfer is replayable even if the donor's journal is retired.
		for i, l := range pl.shardOf {
			if was := prevOwner[i]; members[l] != was {
				if leds[l].Adopt(ledgers.leds[was], ids[i]) {
					rep.HandedOff++
				}
				prevOwner[i] = members[l]
			}
		}

		sinks, lost, err := s.attempt(ctx, epoch, pl, members, leds, joinAt, drainAt)
		if err == nil {
			if !recoveryStart.IsZero() {
				rep.RecoveryTime = time.Since(recoveryStart)
			}
			return sinks, rep, nil
		}
		if recoveryStart.IsZero() {
			recoveryStart = time.Now()
		}
		if ctx.Err() != nil {
			return nil, rep, core.Cancelled(ctx)
		}
		if err == errFenced {
			rep.Fences++
			if rep.Fences > maxFences {
				return nil, rep, fmt.Errorf("mpi: %d membership fences: %w", rep.Fences, core.ErrRetriesExhausted)
			}
			continue
		}
		if !retryable(err) {
			return nil, rep, err
		}
		lastErr = err
		failures++
		for _, id := range lost {
			ms.evict(id)
			rep.LostShards = append(rep.LostShards, id)
		}
		sort.Slice(rep.LostShards, func(i, j int) bool { return rep.LostShards[i] < rep.LostShards[j] })
		if failures >= policy.MaxAttempts {
			return nil, rep, fmt.Errorf("mpi: %d attempt(s) failed: %w (last: %v)", failures, core.ErrRetriesExhausted, lastErr)
		}
		if obs := c.opt.Observer; obs != nil {
			obs.Observe(core.Event{Kind: core.EpochRetried, Epoch: epoch + 1, Lost: append([]core.ShardId(nil), rep.LostShards...)})
		}
		if err := policy.Sleep(ctx, failures); err != nil {
			return nil, rep, err
		}
	}
}

// supervision is the run-constant state of one supervise loop, shared with
// its attempts.
type supervision struct {
	c       *Controller
	ms      *Membership
	connect ConnectFunc
	inject  InjectFunc
	initial map[core.TaskId][]core.Payload
	policy  core.RetryPolicy
	ledgers *ledgerTable
	rep     *ElasticReport
}

// attempt runs one supervised epoch over the given member set: connect the
// epoch's transports, wrap them for injection, clone the inputs, run the
// epoch under the fence watcher, classify losses, tear the transports down.
// It returns the merged sinks on success; otherwise the members declared
// dead (classifyDead — the only loss rule) plus the epoch's failure, or
// errFenced when a membership change cut the epoch short.
func (s *supervision) attempt(ctx context.Context, epoch int, pl *placement, members []core.ShardId, leds []*core.Ledger, joinAt, drainAt time.Time) (map[core.TaskId][]core.Payload, []core.ShardId, error) {
	c, rep, ranks := s.c, s.rep, len(members)
	ectx, ecancel := context.WithCancel(ctx)
	defer ecancel()
	if s.policy.AttemptTimeout > 0 {
		var tcancel context.CancelFunc
		ectx, tcancel = context.WithTimeout(ectx, s.policy.AttemptTimeout)
		defer tcancel()
	}

	trs, err := s.connect(epoch, ranks)
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: epoch %d connect: %w", epoch, err)
	}
	graceful := false
	defer func() { closeEpoch(trs, graceful) }()
	if len(trs) != ranks {
		return nil, nil, fmt.Errorf("mpi: epoch %d: connect returned %d transports, want %d", epoch, len(trs), ranks)
	}
	// The rebalanced epoch is connected: the membership events it absorbed
	// are now served.
	if !joinAt.IsZero() {
		rep.JoinLatency = time.Since(joinAt)
	}
	if !drainAt.IsZero() {
		rep.DrainLatency = time.Since(drainAt)
	}
	wrapped := trs
	if s.inject != nil {
		wrapped = make([]fabric.Transport, ranks)
		for l := range trs {
			wrapped[l] = s.inject(epoch, l, trs[l])
		}
	}
	// Tasks own their inputs, so every attempt consumes a private clone.
	inputs, err := cloneInputs(s.initial)
	if err != nil {
		return nil, nil, err
	}
	var pool *fabric.Pool
	if !c.opt.Inline {
		pool = c.opt.newPool(c.Plan().Size(), ranks, allRanks)
		defer pool.Close()
	}

	// The fence watcher: a membership event arriving mid-epoch freezes the
	// mesh at a journal-consistent point and collapses the epoch. Ordering
	// matters: suspend liveness timers FIRST (a rank stalled in a journal
	// flush must not read as dead), then flush the group-commit journals,
	// then tear the epoch down.
	var fenced atomic.Bool
	fenceDone := make(chan struct{})
	go func() {
		defer close(fenceDone)
		select {
		case <-ectx.Done():
		case <-s.ms.wait():
			fenced.Store(true)
			for _, tr := range trs {
				if fr, ok := tr.(Fencer); ok {
					fr.Fence(true)
				}
			}
			s.ledgers.sync()
			ecancel()
			for _, tr := range trs {
				tr.Cancel()
			}
		}
	}()

	preReplay, preExec := s.ledgers.counts()
	sinks, errs, _ := c.epoch(ectx, pl, wrapped, pool, leds, inputs)
	ecancel()
	<-fenceDone
	postReplay, postExec := s.ledgers.counts()
	rep.TotalExecuted = postExec
	if fenced.Load() {
		return nil, nil, errFenced
	}

	lost := classifyDead(wrapped, errs, members)
	isLost := make(map[core.ShardId]bool, len(lost))
	for _, id := range lost {
		isLost[id] = true
	}
	var firstErr error
	for l, e := range errs {
		if e == nil {
			continue
		}
		if !isLost[members[l]] && !retryable(e) {
			// A real dataflow failure on a healthy rank outranks every
			// transport echo around it.
			return nil, lost, e
		}
		if firstErr == nil {
			firstErr = e
		}
	}
	if firstErr == nil && len(lost) > 0 {
		firstErr = fmt.Errorf("mpi: epoch %d: %d member(s) lost: %w", epoch, len(lost), fabric.ErrPeerLost)
	}
	if firstErr != nil {
		return nil, lost, firstErr
	}
	// Every rank loop returned nil, which it does only once each of its
	// tasks ran (or replayed) and routed: the sinks are complete.
	rep.Replayed, rep.Executed = postReplay-preReplay, postExec-preExec
	graceful = true
	return sinks, nil, nil
}

// retryable classifies an epoch failure: transport-level losses, closed
// mailboxes and attempt timeouts warrant another epoch; anything else (a
// callback error on a healthy rank) is a real dataflow failure.
func retryable(err error) bool {
	return errors.Is(err, fabric.ErrPeerLost) ||
		errors.Is(err, fabric.ErrClosed) ||
		errors.Is(err, core.ErrCancelled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// closeEpoch tears transports down — an epoch's, or a closing service's
// warm one: gracefully (Shutdown, so goodbye frames flow and sockets drain)
// after success, abruptly (Kill/Cancel) after a failed epoch.
func closeEpoch(trs []fabric.Transport, graceful bool) {
	var wg sync.WaitGroup
	for _, tr := range trs {
		if tr == nil {
			continue
		}
		wg.Add(1)
		go func(tr fabric.Transport) {
			defer wg.Done()
			if graceful {
				if s, ok := tr.(interface{ Shutdown(time.Duration) error }); ok {
					s.Shutdown(5 * time.Second)
					return
				}
			}
			if k, ok := tr.(interface{ Kill() }); ok {
				k.Kill()
				return
			}
			tr.Cancel()
		}(tr)
	}
	wg.Wait()
}

// cloneInputs deep-copies the external inputs through their wire form, so
// one attempt's consumption cannot corrupt the next attempt's.
func cloneInputs(initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	out := make(map[core.TaskId][]core.Payload, len(initial))
	for id, ps := range initial {
		for _, p := range ps {
			cp, err := p.CloneForWire()
			if err != nil {
				return nil, fmt.Errorf("mpi: fault-tolerant runs need serializable external inputs: task %d: %w", id, err)
			}
			out[id] = append(out[id], cp)
		}
	}
	return out, nil
}
