package mpi

import (
	"fmt"
	"slices"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Roster is the member table of an elastic run and its one change rule. It
// does no I/O and takes no lock: Membership wraps it behind a mutex for the
// in-process coordinator (supervise), and bfrun's gate parent drives it
// from its event loop; Supervisor applies its loss rule to it. Identities
// are stable — founders are 0..n-1 and
// every joiner brings one never seen before — so per-member journals and
// ledgers follow the member, not its logical rank.
//
// A joiner is pending until a boundary enters it into the rank set. A
// drain targets a member or pending joiner; the boundary takes it out of
// the rank set, and it drains until Drained confirms it. It is then a
// hand-off donor, returned once by the next Epoch, and has left. Evict
// takes a member declared dead out of the rank set at once and makes it a
// donor too: its process is gone, so its journal has no writer left.
type Roster struct {
	state         map[core.ShardId]standing
	joins, drains []core.ShardId // pending, in request order
}

// standing is where an identity is in its life in the roster.
type standing uint8

const (
	joining  standing = iota + 1 // admitted; enters the rank set at the next boundary
	member                       // in the rank set
	draining                     // out of the rank set; drain not yet confirmed
	donor                        // drain confirmed or evicted; hands its lineage to the next epoch
	left                         // handed off; never returns
)

// NewRoster returns a roster whose members are the founders 0..n-1.
func NewRoster(n int) (*Roster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: membership needs at least one rank, got %d", n)
	}
	r := &Roster{state: make(map[core.ShardId]standing, n)}
	for i := 0; i < n; i++ {
		r.state[core.ShardId(i)] = member
	}
	return r, nil
}

// Join registers id as a pending joiner. An identity the roster has seen
// before is refused: identities are never reused.
func (r *Roster) Join(id core.ShardId) error {
	if _, known := r.state[id]; known || id < 0 {
		return fmt.Errorf("mpi: join: member %d is already known", id)
	}
	r.state[id] = joining
	r.joins = append(r.joins, id)
	return nil
}

// Drain marks a member or pending joiner for graceful removal at the next
// boundary. It is idempotent, and refused for any other identity and for
// the last member the boundary would leave.
func (r *Roster) Drain(id core.ShardId) error {
	if s := r.state[id]; s != member && s != joining {
		return fmt.Errorf("mpi: drain: member %d is not part of the membership", id)
	}
	if slices.Contains(r.drains, id) {
		return nil
	}
	if len(r.Members())+len(r.joins)-len(r.drains) <= 1 {
		return fmt.Errorf("mpi: drain: member %d is the last member", id)
	}
	r.drains = append(r.drains, id)
	return nil
}

// Boundary applies the whole pending batch in one step — joiners enter the
// rank set, drain targets leave it and drain — and returns the batch in
// request order.
func (r *Roster) Boundary() (joined, drained []core.ShardId) {
	joined, drained = r.joins, r.drains
	r.joins, r.drains = nil, nil
	for _, id := range joined {
		r.state[id] = member
	}
	for _, id := range drained {
		r.state[id] = draining
	}
	return joined, drained
}

// Drained confirms id's drain: its lineage is complete, so it becomes a
// hand-off donor of the next epoch.
func (r *Roster) Drained(id core.ShardId) error {
	if r.state[id] != draining {
		return fmt.Errorf("mpi: member %d is not draining", id)
	}
	r.state[id] = donor
	return nil
}

// Evict removes a member declared dead from the rank set and makes it a
// donor of the next Epoch: its recorded lineage (journaled, when the run
// journals) is adopted, its unrecorded work re-executes elsewhere. A
// pending drain of it is dropped. Evicting the last member is allowed; the
// run then has no one left.
func (r *Roster) Evict(id core.ShardId) error {
	if r.state[id] != member {
		return fmt.Errorf("mpi: evict: member %d is not in the rank set", id)
	}
	r.state[id] = donor
	r.drains = slices.DeleteFunc(r.drains, func(d core.ShardId) bool { return d == id })
	return nil
}

// Epoch starts the next epoch: it returns the rank set (logical rank l is
// members[l]) and the donors, each returned once, after which it has left.
func (r *Roster) Epoch() (members, donors []core.ShardId) {
	donors = r.with(donor)
	for _, id := range donors {
		r.state[id] = left
	}
	return r.Members(), donors
}

// Members returns the rank set, ascending.
func (r *Roster) Members() []core.ShardId { return r.with(member) }

// Draining returns the members whose drain is unconfirmed, ascending; the
// next epoch waits for them.
func (r *Roster) Draining() []core.ShardId { return r.with(draining) }

// Retired reports whether id has left the run for good or is about to:
// its drain was confirmed, or it was evicted.
func (r *Roster) Retired(id core.ShardId) bool {
	s := r.state[id]
	return s == donor || s == left
}

// Identities returns every identity the roster has seen, ascending.
func (r *Roster) Identities() []core.ShardId { return r.with() }

// with returns the identities in any of the standings ss — every identity
// when ss is empty — ascending.
func (r *Roster) with(ss ...standing) []core.ShardId {
	var ids []core.ShardId
	for id, st := range r.state {
		if len(ss) == 0 || slices.Contains(ss, st) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}
