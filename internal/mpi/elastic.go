package mpi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/journal"
)

// Elastic membership: the epoch protocol generalized from loss-only
// shrinking to arbitrary membership change. A Membership
// registry accumulates join and drain requests; the coordinator fences the
// running epoch at a journal-consistent point (Fabric.Fence suspends
// liveness timers, group-commit journals are flushed, the epoch collapses),
// applies the pending changes in ONE epoch bump (Roster.Boundary),
// rebalances the placement with Plan.Rebalance, adopts handed-off lineage
// into the new owners' ledgers, and runs the next epoch. Losses still
// shrink the membership, but partition hardening distinguishes
// "partitioned but alive" from "dead":
// a rank that itself reported a peer loss was alive to report it and is
// never evicted, so an asymmetric or flapping link costs at most one epoch
// bump instead of an eviction storm.

// errFenced marks an epoch torn down by a membership fence rather than a
// failure. Fenced epochs do not consume the retry budget.
var errFenced = errors.New("mpi: epoch fenced for membership change")

// Fencer is the optional transport hook the fence uses to suspend liveness
// timers while ranks freeze at the barrier (implemented by wire.Fabric).
type Fencer interface {
	Fence(on bool)
}

// Membership is the shared registry of an in-process elastic run: a
// Roster behind a lock, the identity minting of joiners and the wake
// signal that fences a running epoch. The initial ranks are members
// [0, ranks) and every joiner gets a fresh identity. Join and Drain may be
// called from any goroutine, before or during a run; the coordinator
// coalesces everything pending into the next epoch boundary — one epoch
// bump per batch of membership events, however many arrive together.
type Membership struct {
	mu      sync.Mutex
	roster  *Roster
	nextID  core.ShardId
	joinAt  time.Time // earliest unapplied join request
	drainAt time.Time // earliest unapplied drain request
	signal  chan struct{}
}

// NewMembership returns a registry whose initial members are 0..ranks-1.
func NewMembership(ranks int) (*Membership, error) {
	r, err := NewRoster(ranks)
	if err != nil {
		return nil, err
	}
	return &Membership{roster: r, nextID: core.ShardId(ranks), signal: make(chan struct{})}, nil
}

// Join registers a new member and returns its identity. The member becomes
// part of the rank set at the next epoch boundary (fencing the current
// epoch when one is running).
func (m *Membership) Join() core.ShardId {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextID
	m.nextID++
	m.roster.Join(id) // a fresh identity is never refused
	if m.joinAt.IsZero() {
		m.joinAt = time.Now()
	}
	m.wakeLocked()
	return id
}

// Drain marks a member or pending joiner for graceful removal (Roster.Drain):
// at the next epoch boundary its shards are handed off (lineage adopted by
// the new owners) and it leaves the rank set without being declared lost.
// Draining the last remaining member is refused.
func (m *Membership) Drain(id core.ShardId) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.roster.Drain(id); err != nil {
		return err
	}
	if m.drainAt.IsZero() {
		m.drainAt = time.Now()
	}
	m.wakeLocked()
	return nil
}

// wakeLocked signals a waiting coordinator that pending changes exist.
func (m *Membership) wakeLocked() {
	select {
	case <-m.signal:
	default:
		close(m.signal)
	}
}

// wait returns a channel that is closed while membership changes are
// pending (a fence trigger for the running epoch).
func (m *Membership) wait() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.signal
}

// Members returns the active member identities in epoch order.
func (m *Membership) Members() []core.ShardId {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.roster.Members()
}

// take is supervise's epoch boundary: it applies every pending change and
// returns the epoch's members, what changed and the earliest request times
// (for join/drain latency accounting). A drain is confirmed at once — the
// in-process hand-off source is the previous owner's ledger, which the
// coordinator already holds.
func (m *Membership) take() (members, joins, drains []core.ShardId, joinAt, drainAt time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	joins, drains = m.roster.Boundary()
	for _, id := range drains {
		m.roster.Drained(id) // draining since Boundary: never refused
	}
	members, _ = m.roster.Epoch()
	joinAt, drainAt = m.joinAt, m.drainAt
	m.joinAt, m.drainAt = time.Time{}, time.Time{}
	select {
	case <-m.signal:
		m.signal = make(chan struct{}) // re-arm
	default:
	}
	return members, joins, drains, joinAt, drainAt
}

// decide is supervise's verdict on an attempt: s.Decide over the roster.
func (m *Membership) decide(s *Supervisor, o Outcome) Step {
	m.mu.Lock()
	defer m.mu.Unlock()
	return s.Decide(m.roster, o)
}

// ElasticOptions parameterizes RunElastic.
type ElasticOptions struct {
	// Connect is required: it builds each epoch's transports.
	Connect ConnectFunc
	// Inject, when non-nil, wraps each rank's transport (fault injection).
	Inject InjectFunc
	// Initial is the dataflow's full set of external inputs. RunElastic
	// partitions it per epoch map and clones the payloads per attempt, so
	// the inputs must be serializable.
	Initial map[core.TaskId][]core.Payload
	// Membership is the shared registry join/drain requests flow through.
	// Nil runs over a private membership of the Initialize map's shards that
	// nobody joins or drains, so it can only shrink on losses.
	Membership *Membership
}

// ElasticReport summarizes an elastic run.
type ElasticReport struct {
	// Epochs counts every execution attempt: the first, fenced rebuilds and
	// failure retries.
	Epochs int
	// Fences counts epochs cut short by a membership change.
	Fences int
	// Joined and Drained list membership changes applied, in order.
	Joined  []core.ShardId
	Drained []core.ShardId
	// LostShards lists members declared dead (member identities).
	LostShards []core.ShardId
	// HandedOff counts recorded tasks whose lineage was adopted by a new
	// owner at an epoch boundary.
	HandedOff int
	// Replayed and Executed count the FINAL epoch only; on success
	// Replayed+Executed equals the task count (every task either replays
	// from a ledger or executes exactly once).
	Replayed int
	Executed int
	// TotalExecuted counts callback executions across all epochs.
	TotalExecuted int
	// JoinLatency and DrainLatency measure the most recent membership
	// event of each kind: request to running rebalanced epoch.
	JoinLatency  time.Duration
	DrainLatency time.Duration
	// RecoveryTime is the wall clock spent after the first failure or fence.
	RecoveryTime time.Duration
}

// RunElastic executes the dataflow with replay-based fault tolerance under
// elastic membership: a rank-0-style coordinator runs epochs until one
// completes over whatever member set the Membership registry holds,
// fencing and rebalancing on joins and drains, shrinking on real deaths,
// and retrying (without eviction) on partitions. Every member keeps a
// lineage ledger of its completed tasks' serialized outputs across epochs,
// so a retry epoch replays recorded outputs instead of re-executing them
// and only the undelivered frontier runs again. No checkpointing:
// correctness rests on the paper's idempotence contract. See DESIGN.md
// "Execution engine".
//
// The controller's retry policy (WithRetry) bounds the number of failed
// epochs, the backoff between them and each epoch's wall clock. A
// non-retryable failure (a callback error on a surviving rank) aborts
// immediately; exhausting the policy returns an error wrapping
// core.ErrRetriesExhausted; a finished ctx returns one wrapping
// core.ErrCancelled.
func (c *Controller) RunElastic(ctx context.Context, eo ElasticOptions) (map[core.TaskId][]core.Payload, ElasticReport, error) {
	return c.supervise(ctx, eo.Membership, eo.Connect, eo.Inject, eo.Initial)
}

// classifyDead is the loss rule of every supervised run, hardened against
// partitions. The naive rule — any reported rank that also errored is dead
// — evicts the victim of an asymmetric partition: the rank that times out
// on a silent link fails, cancels, and its closing connections make every
// peer report it. Here a rank is declared dead only when
//
//   - it reported ITSELF lost (the injection harness's authoritative
//     self-report for a killed rank), or
//   - it was reported by a peer, errored, and reported no loss of its own:
//     a rank that itself reported a peer loss was alive to observe it —
//     partitioned, not dead — and is retried in place, while a truly dead
//     process reports nothing. Additionally the report must be corroborated
//     through logical rank 0 (the coordinator's heartbeat anchor): either
//     rank 0 is among the reporters, or the suspect IS rank 0 and a
//     majority of the other ranks reported it.
//
// The result: a flapping or one-way link costs one retry epoch with the
// membership intact; only silent, failed, corroborated ranks are evicted.
func classifyDead(wrapped []fabric.Transport, errs []error, members []core.ShardId) []core.ShardId {
	ranks := len(wrapped)
	dead := make(map[int]bool)
	reportedBy := make(map[int]map[int]bool) // suspect -> reporters
	spoke := make(map[int]bool)              // ranks that reported any loss
	for l := range wrapped {
		lr, ok := wrapped[l].(fabric.LossReporter)
		if !ok {
			continue
		}
		for _, lp := range lr.LostPeers() {
			if lp < 0 || lp >= ranks {
				continue
			}
			if lp == l {
				dead[lp] = true
				continue
			}
			spoke[l] = true
			if reportedBy[lp] == nil {
				reportedBy[lp] = make(map[int]bool)
			}
			reportedBy[lp][l] = true
		}
	}
	for lp, reporters := range reportedBy {
		if dead[lp] || spoke[lp] || errs[lp] == nil {
			continue
		}
		corroborated := reporters[0]
		if lp == 0 {
			// Rank 0 cannot vouch for itself: require a majority of the
			// other ranks.
			corroborated = len(reporters) >= (ranks-1)/2+1
		}
		if corroborated {
			dead[lp] = true
		}
	}
	var lost []core.ShardId
	for l := range dead {
		lost = append(lost, members[l])
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	return lost
}

// OpenMemberLedger opens the journal-backed lineage ledger of a stable
// member identity under the controller's journal directory (WithJournal),
// restoring whatever records a previous process left there. The caller owns
// the returned store: Sync it at a fence, Close it on drain or exit — a
// journal admits a single writer, so RunMember adopts a retired member's
// lineage only after it closed its own.
func (c *Controller) OpenMemberLedger(member int) (*core.Ledger, *journal.LedgerStore, error) {
	if c.opt.Journal == "" {
		return nil, nil, fmt.Errorf("mpi: OpenMemberLedger requires a journal directory (WithJournal)")
	}
	return c.openLedger(member)
}
