package core

import (
	"bytes"
	"fmt"
	"strings"
)

// Conditional edges: a task may declare that its output slots are grouped
// into runtime branches (Task.Cond / Task.Branches). Its callback decides
// which branch is active and emits real payloads only on that branch's
// slots; every slot of a losing branch carries a dead token instead
// (SelectBranch does the bookkeeping). Dead tokens flow through the
// dataflow like ordinary payloads — readiness accounting, wire framing,
// journaling and replay are unchanged — but every controller cancels a task
// the moment any of its inputs is dead: the callback is skipped and the
// task re-emits dead tokens on all of its output slots, so the cascade
// deactivates exactly the successors of the losing branches. Dead payloads
// reaching a sink slot are dropped rather than returned, so Run's results
// contain only the live branch's outputs.
//
// This is the decision mechanism behind Iterate: each iteration's synthetic
// decision task routes the loop state to either the next iteration
// (continue branch) or the final sinks (done branch).

// deadMagic is the reserved 16-byte wire form of a dead token. The value is
// random, fixed forever, and astronomically unlikely to collide with a real
// 16-byte payload.
var deadMagic = []byte{0xde, 0xad, 0xf1, 0x0e, 0x5c, 0x1b, 0x8a, 0x47, 0xb3, 0x62, 0x9d, 0xe4, 0x0f, 0x71, 0xc8, 0x2a}

// DeadToken returns the payload that marks an unchosen conditional branch.
// It serializes like any 16-byte buffer, so dead tokens cross shard
// boundaries, journal and replay exactly like real payloads.
func DeadToken() Payload {
	return Buffer(append([]byte(nil), deadMagic...))
}

// IsDead reports whether the payload is a dead token.
func IsDead(p Payload) bool {
	return p.Object == nil && len(p.Data) == len(deadMagic) && bytes.Equal(p.Data, deadMagic)
}

// SelectBranch implements a conditional task's decision: given the task's
// freshly produced outputs (one payload per output slot), it overwrites
// every conditional slot that does not belong to the chosen branch with a
// dead token and returns the slice. Unconditional slots (Cond[slot] == -1)
// and the chosen branch's slots are left untouched.
func SelectBranch(t Task, branch int, out []Payload) ([]Payload, error) {
	if t.Branches <= 0 {
		return nil, fmt.Errorf("core: SelectBranch on task %d, which declares no branches", t.Id)
	}
	if branch < 0 || branch >= t.Branches {
		return nil, fmt.Errorf("core: task %d branch %d out of range [0,%d)", t.Id, branch, t.Branches)
	}
	if len(out) != len(t.Outgoing) || len(t.Cond) != len(t.Outgoing) {
		return nil, fmt.Errorf("core: task %d has %d output slots, got %d outputs and %d cond entries",
			t.Id, len(t.Outgoing), len(out), len(t.Cond))
	}
	for slot, b := range t.Cond {
		if b >= 0 && b != branch {
			out[slot] = DeadToken()
		}
	}
	return out, nil
}

// CancelDead is the controllers' shared cancellation step: if any input
// payload is a dead token the task must not run — every input is released
// and one dead token per output slot is returned for routing, so the
// cascade reaches the successors. ok is false when all inputs are live and
// the callback should run normally.
func CancelDead(t Task, in []Payload) ([]Payload, bool) {
	dead := false
	for _, p := range in {
		if IsDead(p) {
			dead = true
			break
		}
	}
	if !dead {
		return nil, false
	}
	for i := range in {
		in[i].Release()
	}
	out := make([]Payload, len(t.Outgoing))
	for s := range out {
		out[s] = DeadToken()
	}
	return out, true
}

// CycleError is the typed validation error for a cyclic task graph. Path
// cites one offending cycle: a sequence of task ids in which each task
// consumes an output of the previous one and the first equals the last.
type CycleError struct {
	Path []TaskId
}

// Error implements error.
func (e *CycleError) Error() string {
	var b strings.Builder
	b.WriteString("core: task graph has a cycle: ")
	for i, id := range e.Path {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

// CondError is the typed validation error for a malformed conditional-edge
// declaration: a Cond list that does not match the output slots, a branch
// index out of range, or a dangling branch that owns no slot. Slot and
// Branch are -1 when the violation is not specific to one.
type CondError struct {
	Id     TaskId
	Slot   int
	Branch int
	Reason string
}

// Error implements error.
func (e *CondError) Error() string {
	msg := fmt.Sprintf("core: task %d conditional edges invalid: %s", e.Id, e.Reason)
	if e.Slot >= 0 {
		msg += fmt.Sprintf(" (slot %d)", e.Slot)
	}
	if e.Branch >= 0 {
		msg += fmt.Sprintf(" (branch %d)", e.Branch)
	}
	return msg
}

// validateCond checks one task's conditional-edge declaration; it returns
// nil for tasks without branches (Cond must then be nil too).
func validateCond(t *Task) error {
	if t.Branches == 0 && t.Cond == nil {
		return nil
	}
	if t.Branches < 0 {
		return &CondError{Id: t.Id, Slot: -1, Branch: t.Branches, Reason: "negative branch count"}
	}
	if t.Branches > 0 && t.Cond == nil {
		return &CondError{Id: t.Id, Slot: -1, Branch: -1, Reason: fmt.Sprintf("declares %d branches but no Cond slot assignment", t.Branches)}
	}
	if t.Branches == 0 {
		return &CondError{Id: t.Id, Slot: -1, Branch: -1, Reason: "Cond set but Branches is 0"}
	}
	if len(t.Cond) != len(t.Outgoing) {
		return &CondError{Id: t.Id, Slot: -1, Branch: -1,
			Reason: fmt.Sprintf("Cond has %d entries for %d output slots", len(t.Cond), len(t.Outgoing))}
	}
	owned := make([]bool, t.Branches)
	for slot, b := range t.Cond {
		if b < -1 || b >= t.Branches {
			return &CondError{Id: t.Id, Slot: slot, Branch: b,
				Reason: fmt.Sprintf("branch index out of range [-1,%d)", t.Branches)}
		}
		if b >= 0 {
			owned[b] = true
		}
	}
	for b, ok := range owned {
		if !ok {
			return &CondError{Id: t.Id, Slot: -1, Branch: b, Reason: "dangling branch: no output slot assigned to it"}
		}
	}
	return nil
}
