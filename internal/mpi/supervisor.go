package mpi

import (
	"fmt"
	"slices"
	"strings"

	"github.com/babelflow/babelflow-go/internal/core"
)

// maxFences bounds membership-fence rebuilds of one supervised run. Fenced
// epochs do not consume the retry budget — a retry is a failure, a fence is
// a request — but runaway churn must still terminate.
const maxFences = 32

// Outcome is how one attempt of an elastic run ended, as its coordinator
// saw it. The zero Outcome is success.
type Outcome struct {
	// Fenced: a membership change cut the attempt short.
	Fenced bool
	// Lost names the members declared dead; a loss outranks a fence.
	Lost []core.ShardId
	// Err is the attempt's failure, and Fatal marks it not retryable (a
	// dataflow failure on a healthy member, not a fault).
	Err   error
	Fatal bool
}

// Step is the Supervisor's answer to an Outcome: run the next epoch (after
// the retry policy's backoff before retry Backoff, or at once when it is
// zero), give up with Err, or — neither — the run is done.
type Step struct {
	Next    bool
	Backoff int
	Err     error
}

// Supervisor is the recovery rule of an elastic run: per attempt it decides
// done, next epoch or give up, and it owns the retry budget, the fence cap
// and the loss → evict rule. Like Roster it does no I/O and takes no lock:
// supervise consults it between in-process attempts, and bfrun's gate
// parent from its event loop, so both coordinators recover alike.
type Supervisor struct {
	attempts, failures, fences int
	lost                       []core.ShardId
}

// NewSupervisor returns the rule for a run that may fail attempts times
// before giving up; a non-positive budget selects
// core.DefaultRetryPolicy's.
func NewSupervisor(attempts int) *Supervisor {
	return &Supervisor{attempts: core.RetryPolicy{MaxAttempts: attempts}.WithDefaults().MaxAttempts}
}

// Decide takes an attempt's outcome and returns the next step. A fence
// costs no budget but at most maxFences are granted. A loss or retryable
// failure spends one attempt and evicts the lost members from r, each
// becoming a donor of r's next Epoch; a run left with no member, or out of
// budget, gives up naming its lost members. A fatal failure gives up at
// once.
func (s *Supervisor) Decide(r *Roster, o Outcome) Step {
	switch {
	case len(o.Lost) == 0 && o.Fenced:
		if s.fences++; s.fences > maxFences {
			return Step{Err: fmt.Errorf("mpi: %d membership fences: %w", s.fences, core.ErrRetriesExhausted)}
		}
		return Step{Next: true}
	case o.Fatal:
		return Step{Err: o.Err}
	case len(o.Lost) == 0 && o.Err == nil:
		return Step{}
	}
	s.failures++
	for _, id := range o.Lost {
		if r.Evict(id) == nil {
			s.lost = append(s.lost, id)
		}
	}
	slices.Sort(s.lost)
	switch {
	case len(r.Members())+len(r.joins) == 0:
		return Step{Err: fmt.Errorf("mpi: every member lost (%s): %w", names(s.lost), core.ErrRetriesExhausted)}
	case s.failures >= s.attempts:
		return Step{Err: fmt.Errorf("mpi: %d attempt(s) failed (lost: %s): %w (last: %v)", s.failures, names(s.lost), core.ErrRetriesExhausted, o.Err)}
	}
	return Step{Next: true, Backoff: s.failures}
}

// Lost returns the members evicted so far, ascending.
func (s *Supervisor) Lost() []core.ShardId { return slices.Clone(s.lost) }

// Fences returns the fences granted so far, the refused one included.
func (s *Supervisor) Fences() int { return s.fences }

// names renders member identities for an error: "member 1, member 3", or
// "none".
func names(ids []core.ShardId) string {
	if len(ids) == 0 {
		return "none"
	}
	s := make([]string, len(ids))
	for i, id := range ids {
		s[i] = fmt.Sprintf("member %d", id)
	}
	return strings.Join(s, ", ")
}
