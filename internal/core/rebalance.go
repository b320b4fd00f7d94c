package core

import "errors"

// Shard rebalancing for recovery and elastic membership: Plan.Rebalance
// places an arbitrary membership epoch. Members may drop out (drained or
// dead) AND new members may join, with work actively moved onto the
// joiners; a recovery epoch is the loss-only special case. Both elastic
// coordinators place every epoch with it: mpi's supervise in process and
// each forked member (mpi.Controller.RunMember).
//
// Member identity convention: members[l] is the physical identity of the
// epoch's logical rank l. An identity in [0, shards) denotes that base
// shard — a survivor, which keeps its own tasks so its lineage ledger stays
// valid. An identity >= shards is a joiner: it owns no tasks under the base
// placement and receives work from the rebalance. Identities are stable
// across epochs, so per-member journals and ledgers follow the member, not
// the logical rank.

// Rebalance places a membership epoch: base[i] is the base shard (of
// shards) of the plan's i-th task, and the result is each task's logical
// rank in the epoch over members. Three deterministic steps:
//
//  1. Survivors keep their own tasks (renumbered to their logical rank).
//  2. Orphaned tasks — whose base shard is not a member (dead or drained) —
//     are redistributed round-robin over all logical ranks.
//  3. When the member set includes joiners, tasks are moved from the most
//     loaded ranks onto the least loaded joiners until no joiner trails any
//     rank by more than one task, so new capacity takes a fair share
//     instead of only inheriting orphans.
//
// Tasks that change owners lose ledger locality; the elastic coordinators
// repair that by adopting their recorded lineage into the new owner's
// ledger (Ledger.Adopt) before the epoch runs.
func (p *Plan) Rebalance(base []int32, shards int, members []ShardId) ([]int32, error) {
	if len(members) == 0 {
		return nil, errors.New("core: rebalance: no members")
	}
	logical := make(map[ShardId]int32, len(members))
	var joiners []int // logical ranks of members outside the base map
	for i, s := range members {
		if s < 0 {
			return nil, errors.New("core: rebalance: negative member identity")
		}
		if _, dup := logical[s]; dup {
			return nil, errors.New("core: rebalance: duplicate member")
		}
		logical[s] = int32(i)
		if int(s) >= shards {
			joiners = append(joiners, i)
		}
	}

	dest := make([]int32, len(p.ids))
	owned := make([][]int, len(members))
	rr := 0
	for i := range dest {
		l, ok := logical[ShardId(base[i])]
		if !ok {
			l = int32(rr % len(members))
			rr++
		}
		dest[i] = l
		owned[l] = append(owned[l], i)
	}

	for len(joiners) > 0 {
		src, dst := 0, joiners[0]
		for i := range owned {
			if len(owned[i]) > len(owned[src]) {
				src = i
			}
		}
		for _, j := range joiners {
			if len(owned[j]) < len(owned[dst]) {
				dst = j
			}
		}
		if src == dst || len(owned[src])-len(owned[dst]) <= 1 {
			break
		}
		// Donate the donor's highest task id: deterministic, and it peels
		// from the tail so the survivor's low ids (typically the graph's
		// leaves it already recorded) stay put.
		t := owned[src][len(owned[src])-1]
		owned[src] = owned[src][:len(owned[src])-1]
		owned[dst] = append(owned[dst], t)
		dest[t] = int32(dst)
	}
	return dest, nil
}
