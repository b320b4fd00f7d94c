package mpi

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// ErrDraining marks a submission that cannot be placed because it pins
// tasks to a rank that is draining (or because every rank is draining).
// The admission layer maps it to HTTP 429 with a Retry-After: the caller
// should resubmit without the pin, or after the drain completes.
var ErrDraining = errors.New("mpi: rank is draining")

// Submission is one graph instance handed to a resident Service: the graph,
// an optional task map (nil places tasks by core.NewGraphMap's rule), a
// callback registration hook and the dataflow's
// external inputs.
type Submission struct {
	Graph core.TaskGraph
	// Map places tasks on the service's ranks. Nil selects
	// core.NewGraphMap(ranks, Graph). A non-nil map must shard over exactly
	// the service's rank count.
	Map core.TaskMap
	// Register binds the graph's callbacks on the per-run controller — the
	// same shape the use-case configs expose (cfg.Register(c, graph)).
	Register func(core.CallbackRegistrar) error
	// Initial is the dataflow's full set of external inputs. The run
	// consumes them; submit fresh payloads per instance.
	Initial map[core.TaskId][]core.Payload
}

// Service is the resident execution session the streaming server is built
// on: it splits controller lifecycle from graph lifecycle. Where Run
// builds a fabric, a work-stealing pool and per-rank journals for one graph
// and tears everything down again, a Service keeps one transport (behind a
// run demultiplexer), one warm executor pool and one journal root alive
// across an arbitrary stream of Submit calls. Each submission becomes a
// numbered run: a cheap per-run controller attaches to the warm fabric
// through its own fabric.RunTransport view, executes, and detaches —
// concurrent submissions interleave freely over the shared infrastructure
// without seeing each other's messages.
type Service struct {
	opt   options
	ranks int
	base  fabric.Transport
	demux *fabric.Demux
	pool  *fabric.Pool

	next   atomic.Uint64 // run id allocator; ids start at 1 (0 = unmultiplexed)
	active sync.WaitGroup

	// Drain lifecycle: a draining rank stops receiving tasks from new
	// submissions (their shards are remapped — handed off — onto the
	// remaining ranks) and is considered drained once no in-flight run owns
	// tasks on it. rankRuns counts, per rank, the active runs with at least
	// one task placed there.
	rankRuns     []atomic.Int64
	handoffRuns  atomic.Uint64 // submissions remapped off draining ranks
	handoffTasks atomic.Uint64 // tasks moved by those remappings

	mu       sync.Mutex
	closed   bool
	draining map[int]bool
}

// NewService builds a resident execution session over ranks logical ranks.
// It accepts the same options as New; Workers sizes the warm pool (the
// graph-size clamp of one-shot runs does not apply — the pool serves many
// graphs), Journal roots per-run journal directories (run id under the
// root), and Transport substitutes the warm fabric (it must be receivable
// for every rank in-process, like the default in-memory fabric).
func NewService(ranks int, opts ...Option) (*Service, error) {
	opt := resolve(opts)
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("mpi: service needs at least one rank, got %d", ranks)
	}

	var base fabric.Transport
	if opt.Transport != nil {
		base = opt.Transport(ranks)
	} else {
		base = fabric.New(ranks)
	}
	local := make([]int, ranks)
	for i := range local {
		local[i] = i
	}
	s := &Service{
		opt:      opt,
		ranks:    ranks,
		base:     base,
		demux:    fabric.NewDemux(base, local...),
		rankRuns: make([]atomic.Int64, ranks),
		draining: make(map[int]bool),
		pool:     opt.newPool(opt.Workers, ranks, allRanks),
	}
	return s, nil
}

// Ranks returns the session's logical rank count — the shard count every
// submission's task map must match.
func (s *Service) Ranks() int { return s.ranks }

// Runs returns the number of submissions currently attached to the fabric.
func (s *Service) Runs() int { return s.demux.Runs() }

// Stray returns how many frames the run demultiplexer dropped because they
// addressed an unknown or already-released run — late arrivals racing a
// cancel, or traffic from a misbehaving peer.
func (s *Service) Stray() uint64 { return s.demux.Stray() }

// Drain marks a rank draining: new submissions stop placing tasks on it
// (default-mapped submissions are transparently remapped — the hand-off —
// while submissions pinning tasks there are refused with ErrDraining), and
// the rank counts as drained once every in-flight run that owns tasks on
// it completes. Idempotent; draining the last undrained rank is refused.
func (s *Service) Drain(rank int) error {
	if rank < 0 || rank >= s.ranks {
		return fmt.Errorf("mpi: drain: rank %d out of range [0,%d)", rank, s.ranks)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining[rank] {
		return nil
	}
	if len(s.draining) == s.ranks-1 {
		return fmt.Errorf("mpi: drain: rank %d is the last undrained rank: %w", rank, ErrDraining)
	}
	s.draining[rank] = true
	return nil
}

// Undrain returns a draining rank to service.
func (s *Service) Undrain(rank int) error {
	if rank < 0 || rank >= s.ranks {
		return fmt.Errorf("mpi: undrain: rank %d out of range [0,%d)", rank, s.ranks)
	}
	s.mu.Lock()
	delete(s.draining, rank)
	s.mu.Unlock()
	return nil
}

// Draining returns the ranks currently draining, ascending.
func (s *Service) Draining() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.draining))
	for r := range s.draining {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// RankActive returns how many in-flight runs own at least one task on the
// rank — zero on a draining rank means the drain is complete.
func (s *Service) RankActive(rank int) int {
	if rank < 0 || rank >= s.ranks {
		return 0
	}
	return int(s.rankRuns[rank].Load())
}

// HandoffCounts reports the drain hand-off totals: submissions remapped
// off draining ranks, and tasks those remappings moved.
func (s *Service) HandoffCounts() (runs, tasks uint64) {
	return s.handoffRuns.Load(), s.handoffTasks.Load()
}

// drainingSnapshot returns the current draining set, nil when empty.
func (s *Service) drainingSnapshot() map[int]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.draining) == 0 {
		return nil
	}
	return maps.Clone(s.draining)
}

// avoidDraining re-places every task on a draining rank onto the undrained
// ranks and reports how many moved. The rule is Plan.Rebalance's with the
// undrained ranks as members: they keep their own tasks and the orphans are
// dealt round-robin in plan order. The rank count is unchanged (the fabric
// still spans all ranks; draining ranks just own no tasks).
func avoidDraining(p *core.Plan, pl *placement, draining map[int]bool) (*placement, int, error) {
	var healthy []core.ShardId
	for r := range pl.local {
		if !draining[r] {
			healthy = append(healthy, core.ShardId(r))
		}
	}
	dest, err := p.Rebalance(pl.shardOf, len(pl.local), healthy)
	if err != nil {
		return nil, 0, err
	}
	moved := 0
	for i, l := range dest {
		// Map the member's logical rank back to its physical rank.
		dest[i] = int32(healthy[l])
		if dest[i] != pl.shardOf[i] {
			moved++
		}
	}
	return newPlacement(len(pl.local), dest), moved, nil
}

// Submit executes one graph instance over the warm fabric and pool,
// returning its sink outputs and (for journaled services) the run's journal
// counters. Safe for concurrent use: each call gets a private run id, a
// private transport view and — when the service journals — a private
// journal directory (<root>/run-<id>), so interleaved submissions cannot
// interfere. A finished ctx cancels only this run.
func (s *Service) Submit(ctx context.Context, sub Submission) (map[core.TaskId][]core.Payload, JournalStats, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, JournalStats{}, fmt.Errorf("mpi: service closed")
	}
	s.active.Add(1)
	s.mu.Unlock()
	defer s.active.Done()

	if sub.Graph == nil {
		return nil, JournalStats{}, fmt.Errorf("mpi: submission has no graph")
	}
	// The per-run controller is built from the compiled submission: plan
	// and placement are each derived once, here, and serve the drain check,
	// the per-rank activity accounting and the run itself. Isolating
	// registries per run lets submissions carry entirely different graphs
	// and callbacks.
	plan, err := core.Compile(sub.Graph)
	if err != nil {
		return nil, JournalStats{}, err
	}
	var pl *placement
	if sub.Map == nil {
		pl = newPlacement(s.ranks, plan.Spread(s.ranks))
	} else {
		if got := sub.Map.ShardCount(); got != s.ranks {
			return nil, JournalStats{}, fmt.Errorf("mpi: submission map shards over %d ranks, service has %d", got, s.ranks)
		}
		if pl, err = place(plan, sub.Map); err != nil {
			return nil, JournalStats{}, err
		}
	}
	if draining := s.drainingSnapshot(); draining != nil {
		if sub.Map != nil {
			// An explicit map is a placement contract: refuse rather than
			// silently violate it when it pins tasks to a draining rank.
			for i, r := range pl.shardOf {
				if draining[int(r)] {
					return nil, JournalStats{}, fmt.Errorf("mpi: submission places task %d on draining rank %d: %w", plan.TaskIds()[i], r, ErrDraining)
				}
			}
		} else {
			// Default placement: hand the draining ranks' shards off to the
			// remaining ranks transparently.
			var moved int
			if pl, moved, err = avoidDraining(plan, pl, draining); err != nil {
				return nil, JournalStats{}, err
			}
			if moved > 0 {
				s.handoffRuns.Add(1)
				s.handoffTasks.Add(uint64(moved))
			}
		}
	}

	// Per-rank activity accounting (drain completion watches it): a rank is
	// busy while a run owning tasks on it is in flight.
	for r, local := range pl.local {
		if len(local) > 0 {
			s.rankRuns[r].Add(1)
			defer s.rankRuns[r].Add(-1)
		}
	}

	id := s.next.Add(1)
	opt := s.opt
	opt.Transport = nil
	if opt.Journal != "" {
		opt.Journal = filepath.Join(opt.Journal, fmt.Sprintf("run-%d", id))
	}
	ctrl := newFromOptions(opt)
	ctrl.place = pl
	if err := ctrl.Bind(plan); err != nil {
		return nil, JournalStats{}, err
	}
	if sub.Register != nil {
		if err := sub.Register(ctrl); err != nil {
			return nil, JournalStats{}, err
		}
	}

	view, err := s.demux.Open(id)
	if err != nil {
		return nil, JournalStats{}, err
	}
	defer s.demux.Release(id)

	// One epoch over every rank, on this run's view of the warm fabric and
	// the resident pool; run's pre-flight and journal handling are the
	// one-shot path's.
	results, err := ctrl.run(ctx, allRanks, view, s.pool, nil, nil, sub.Initial)
	return results, ctrl.JournalStats(), err
}

// Close drains the session: it stops accepting submissions, waits for
// active runs to finish, then releases the pool, the demultiplexer and the
// warm transport. Idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.active.Wait()
	s.pool.Close()
	s.demux.Close()
	closeEpoch([]fabric.Transport{s.base}, true)
	s.demux.Wait()
	return nil
}
