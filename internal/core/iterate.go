package core

import (
	"fmt"
	"sort"
)

// Iterative dataflow: Iterate compiles a loop over a body graph into an
// ordinary static DAG, extending the paper's composition-prefix scheme by
// one more level. A composed task id already reserves its top 16 bits for
// the sub-graph prefix; an unrolled iterative graph additionally places the
// iteration index in bits [IterShift, IterShift+8), so every task id names
// (prefix, iteration, body task) unambiguously — fingerprints, lineage
// records and journal replay all stay per-iteration precise without any new
// runtime state.
//
// Each iteration k ends in one synthetic decision task D_k that receives
// the iteration's gated sink payloads, runs the user's convergence
// predicate, and routes the loop state through a conditional fan-out
// (Task.Cond): branch 0 ("continue") feeds iteration k+1's gated inputs,
// branch 1 ("done") feeds the final sink slots. The losing branch carries
// dead tokens, so after convergence every remaining iteration cancels
// without executing and the done payloads are the only live sinks. The
// predicate therefore runs as a plain dataflow task — distributed runs need
// no consensus round, because the decision propagates to every rank as
// ordinary (live or dead) messages, and a new iteration's frontier becomes
// ready only after the previous iteration's decision task has run.

const (
	// IterShift is the bit position of the iteration index within an
	// unrolled task id: IterId(k, id) = k<<IterShift | id. Body task ids
	// must stay below 2^IterShift.
	IterShift = 40
	// iterSynthetic is the reserved iteration prefix of the synthetic
	// per-iteration decision tasks, which caps usable iterations at 255.
	iterSynthetic = 0xFF
	// MaxIterationsBound is the largest admissible MaxIterations value.
	MaxIterationsBound = iterSynthetic - 1
	// DefaultMaxIterations bounds an Iterate without an explicit
	// MaxIterations option.
	DefaultMaxIterations = 8
	// DecisionCallback is the reserved callback id of the synthetic
	// decision tasks. IterativeGraph.RegisterDecision installs the
	// implementation; body graphs must not use this id.
	DecisionCallback CallbackId = 0xFFFFFFF0
)

// IterId maps a body-local task id into iteration k of the unrolled id
// space.
func IterId(iter int, id TaskId) TaskId {
	return TaskId(uint64(iter)<<IterShift | uint64(id))
}

// IterOf extracts the iteration index of an unrolled task id; decision
// tasks report iterSynthetic (see IsDecision).
func IterOf(id TaskId) int { return int(id >> IterShift & iterSynthetic) }

// BodyId strips the iteration index, recovering the body-local task id.
func BodyId(id TaskId) TaskId { return id & (1<<IterShift - 1) }

// DecisionId returns the id of iteration k's synthetic decision task.
func DecisionId(iter int) TaskId {
	return TaskId(uint64(iterSynthetic)<<IterShift | uint64(iter))
}

// IsDecision reports whether the unrolled task id names a synthetic
// decision task.
func IsDecision(id TaskId) bool { return id>>IterShift&iterSynthetic == iterSynthetic }

// ConvergencePredicate decides, after each iteration, whether the loop has
// converged. iter is the just-finished iteration (0-based) and sinks maps
// each gated sink's body-local task id to its payloads in slot order — the
// same shape Controller.Run returns for the body graph. The predicate runs
// inside the iteration's decision task, so it must be deterministic and
// must not retain or mutate the payloads. Returning true stops the loop:
// the gated payloads become the final sinks and every later iteration is
// cancelled via dead tokens.
type ConvergencePredicate func(iter int, sinks map[TaskId][]Payload) (bool, error)

// IterBinding names one feedback edge of an iterative graph: the FromSlot-th
// output slot of body task From (which must be a sink slot) feeds the
// ToSlot-th input slot of body task To (which must be an ExternalInput
// slot) in the next iteration.
type IterBinding struct {
	From     TaskId
	FromSlot int
	To       TaskId
	ToSlot   int
}

// IterOption configures Iterate.
type IterOption interface{ applyIter(*iterConfig) }

type iterConfig struct {
	maxIter int
	gates   []IterBinding
	carries []IterBinding
}

type iterOptionFunc func(*iterConfig)

func (f iterOptionFunc) applyIter(c *iterConfig) { f(c) }

// MaxIterations bounds the loop at n iterations; the n-th decision task is
// unconditional, emitting whatever state the loop reached even if the
// predicate never held.
func MaxIterations(n int) IterOption {
	return iterOptionFunc(func(c *iterConfig) { c.maxIter = n })
}

// Gate declares a predicate-visible feedback edge: the sink payload is
// routed through the iteration's decision task, shows up in the predicate's
// sinks map, feeds the target input of the next iteration on the continue
// branch, and becomes a final sink on the done branch. Several Gate calls
// may share one source (fan-out to several targets). Every Iterate needs at
// least one gate — it is what the loop converges on.
func Gate(from TaskId, fromSlot int, to TaskId, toSlot int) IterOption {
	return iterOptionFunc(func(c *iterConfig) {
		c.gates = append(c.gates, IterBinding{From: from, FromSlot: fromSlot, To: to, ToSlot: toSlot})
	})
}

// Carry declares a pass-through feedback edge for loop-invariant state
// (tiles, meshes, configuration): the sink payload feeds the target input
// of the next iteration directly, skipping the decision task and the
// predicate. After convergence the cascade of dead tokens kills carried
// edges along with everything else.
func Carry(from TaskId, fromSlot int, to TaskId, toSlot int) IterOption {
	return iterOptionFunc(func(c *iterConfig) {
		c.carries = append(c.carries, IterBinding{From: from, FromSlot: fromSlot, To: to, ToSlot: toSlot})
	})
}

// iterSource groups the bindings sharing one (From, FromSlot) sink slot.
type iterSource struct {
	From     TaskId
	FromSlot int
	Targets  []IterBinding // sorted by (To, ToSlot)
}

// IterativeGraph is the statically unrolled form of a loop built by
// Iterate: a plain TaskGraph (every controller, transport tier and journal
// runs it unchanged) that additionally knows its iteration structure, so it
// can register the synthetic decision callback and decode the final sinks.
type IterativeGraph struct {
	*ExplicitGraph
	plan    *Plan // Iterate's validation; Compile returns it
	body    TaskGraph
	pred    ConvergencePredicate
	maxIter int
	gates   []iterSource
	carries []iterSource
	// lastGateIdx maps gate j to its input index on the final decision
	// task, whose Incoming interleaves gate and carry sources in
	// per-producer emission order.
	lastGateIdx []int
}

// groupSources sorts bindings into per-source groups (unique (From,
// FromSlot), ascending), each with its targets sorted by (To, ToSlot).
func groupSources(bindings []IterBinding) []iterSource {
	byKey := make(map[[2]uint64][]IterBinding)
	for _, b := range bindings {
		k := [2]uint64{uint64(b.From), uint64(b.FromSlot)}
		byKey[k] = append(byKey[k], b)
	}
	keys := make([][2]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]iterSource, 0, len(keys))
	for _, k := range keys {
		ts := byKey[k]
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].To != ts[j].To {
				return ts[i].To < ts[j].To
			}
			return ts[i].ToSlot < ts[j].ToSlot
		})
		out = append(out, iterSource{From: TaskId(k[0]), FromSlot: int(k[1]), Targets: ts})
	}
	return out
}

// Iterate unrolls body into an iterative graph bounded by MaxIterations.
// The feedback wiring (Gate/Carry options) must cover every ExternalInput
// slot of the body exactly once — iteration 0 keeps those slots external,
// so the loop is seeded by ordinary initial inputs — and every binding
// source must be a sink slot of the body. At least one Gate is required.
func Iterate(body TaskGraph, pred ConvergencePredicate, opts ...IterOption) (*IterativeGraph, error) {
	if body == nil {
		return nil, fmt.Errorf("core: Iterate over a nil body graph")
	}
	if pred == nil {
		return nil, fmt.Errorf("core: Iterate needs a convergence predicate")
	}
	if err := Validate(body); err != nil {
		return nil, fmt.Errorf("core: Iterate body invalid: %w", err)
	}
	cfg := iterConfig{maxIter: DefaultMaxIterations}
	for _, o := range opts {
		o.applyIter(&cfg)
	}
	if cfg.maxIter < 1 || cfg.maxIter > MaxIterationsBound {
		return nil, fmt.Errorf("core: MaxIterations %d out of range [1,%d]", cfg.maxIter, MaxIterationsBound)
	}
	if len(cfg.gates) == 0 {
		return nil, fmt.Errorf("core: Iterate needs at least one Gate binding")
	}
	for _, cb := range body.Callbacks() {
		if cb == DecisionCallback {
			return nil, fmt.Errorf("core: body graph uses the reserved decision callback id %d", DecisionCallback)
		}
	}

	// Index the body and check the binding endpoints.
	bodyTasks := make(map[TaskId]Task, body.Size())
	for _, id := range body.TaskIds() {
		if uint64(id) >= 1<<IterShift {
			return nil, fmt.Errorf("core: body task id %d exceeds the 2^%d iteration-prefix capacity", id, IterShift)
		}
		t, _ := body.Task(id)
		bodyTasks[id] = t
	}
	kind := make(map[[2]uint64]string) // source slot -> "gate" | "carry"
	checkSource := func(b IterBinding, k string) error {
		t, ok := bodyTasks[b.From]
		if !ok {
			return fmt.Errorf("core: %s source names unknown body task %d", k, b.From)
		}
		if b.FromSlot < 0 || b.FromSlot >= len(t.Outgoing) {
			return fmt.Errorf("core: %s source task %d has no output slot %d", k, b.From, b.FromSlot)
		}
		if len(t.Outgoing[b.FromSlot]) != 0 {
			return fmt.Errorf("core: %s source task %d slot %d is not a sink slot", k, b.From, b.FromSlot)
		}
		key := [2]uint64{uint64(b.From), uint64(b.FromSlot)}
		if prev, dup := kind[key]; dup && prev != k {
			return fmt.Errorf("core: task %d slot %d bound as both gate and carry", b.From, b.FromSlot)
		}
		kind[key] = k
		return nil
	}
	covered := make(map[[2]uint64]bool) // (to, toSlot) -> bound
	checkTarget := func(b IterBinding, k string) error {
		t, ok := bodyTasks[b.To]
		if !ok {
			return fmt.Errorf("core: %s target names unknown body task %d", k, b.To)
		}
		if b.ToSlot < 0 || b.ToSlot >= len(t.Incoming) {
			return fmt.Errorf("core: %s target task %d has no input slot %d", k, b.To, b.ToSlot)
		}
		if t.Incoming[b.ToSlot] != ExternalInput {
			return fmt.Errorf("core: %s target task %d slot %d is not an ExternalInput slot", k, b.To, b.ToSlot)
		}
		key := [2]uint64{uint64(b.To), uint64(b.ToSlot)}
		if covered[key] {
			return fmt.Errorf("core: task %d input slot %d bound twice", b.To, b.ToSlot)
		}
		covered[key] = true
		return nil
	}
	for _, b := range cfg.gates {
		if err := checkSource(b, "gate"); err != nil {
			return nil, err
		}
		if err := checkTarget(b, "gate"); err != nil {
			return nil, err
		}
	}
	for _, b := range cfg.carries {
		if err := checkSource(b, "carry"); err != nil {
			return nil, err
		}
		if err := checkTarget(b, "carry"); err != nil {
			return nil, err
		}
	}
	for id, t := range bodyTasks {
		for slot, p := range t.Incoming {
			if p == ExternalInput && !covered[[2]uint64{uint64(id), uint64(slot)}] {
				return nil, fmt.Errorf("core: body task %d input slot %d is external but no Gate/Carry feeds it", id, slot)
			}
		}
	}

	gates := groupSources(cfg.gates)
	carries := groupSources(cfg.carries)

	// Producer-matching delivery fills a consumer's input slots for one
	// producer in arrival order. All gated inputs of a target task arrive
	// from the same decision task in gate order, and all carried inputs
	// from one source task arrive in ascending source-slot order — so the
	// target input slots must ascend the same way, or the feedback payloads
	// would land in the wrong slots.
	lastGate := make(map[TaskId]int)
	for _, s := range gates {
		for _, b := range s.Targets {
			if prev, seen := lastGate[b.To]; seen && b.ToSlot <= prev {
				return nil, fmt.Errorf("core: gated inputs of task %d must be wired in ascending slot order (slot %d after %d)", b.To, b.ToSlot, prev)
			}
			lastGate[b.To] = b.ToSlot
		}
	}
	lastCarry := make(map[[2]uint64]int)
	for _, s := range carries {
		for _, b := range s.Targets {
			key := [2]uint64{uint64(s.From), uint64(b.To)}
			if prev, seen := lastCarry[key]; seen && b.ToSlot <= prev {
				return nil, fmt.Errorf("core: inputs of task %d carried from task %d must be wired in ascending slot order (slot %d after %d)", b.To, s.From, b.ToSlot, prev)
			}
			lastCarry[key] = b.ToSlot
		}
	}
	gateOf := make(map[[2]uint64]int, len(gates)) // source slot -> gate index
	for j, s := range gates {
		gateOf[[2]uint64{uint64(s.From), uint64(s.FromSlot)}] = j
	}
	carryOf := make(map[[2]uint64]*iterSource, len(carries))
	for i := range carries {
		s := &carries[i]
		carryOf[[2]uint64{uint64(s.From), uint64(s.FromSlot)}] = s
	}
	// gatedBy/carriedBy: target input slot -> binding source, for rewiring
	// iteration k's external inputs to iteration k-1's producers.
	gatedBy := make(map[[2]uint64]bool)
	for _, b := range cfg.gates {
		gatedBy[[2]uint64{uint64(b.To), uint64(b.ToSlot)}] = true
	}
	carrySrc := make(map[[2]uint64]TaskId)
	for _, b := range cfg.carries {
		carrySrc[[2]uint64{uint64(b.To), uint64(b.ToSlot)}] = b.From
	}

	// Unroll: maxIter body copies plus one decision task per iteration.
	S := len(gates)
	var tasks []Task
	var lastGateIdx []int
	bodyIds := body.TaskIds()
	for k := 0; k < cfg.maxIter; k++ {
		last := k == cfg.maxIter-1
		for _, id := range bodyIds {
			bt := bodyTasks[id]
			t := bt.Clone()
			t.Id = IterId(k, id)
			for i, p := range t.Incoming {
				switch {
				case p != ExternalInput:
					t.Incoming[i] = IterId(k, p)
				case k == 0:
					// Iteration 0 is seeded externally.
				case gatedBy[[2]uint64{uint64(id), uint64(i)}]:
					t.Incoming[i] = DecisionId(k - 1)
				default:
					t.Incoming[i] = IterId(k-1, carrySrc[[2]uint64{uint64(id), uint64(i)}])
				}
			}
			for s := range t.Outgoing {
				for i, c := range t.Outgoing[s] {
					t.Outgoing[s][i] = IterId(k, c)
				}
				if len(t.Outgoing[s]) != 0 {
					continue
				}
				key := [2]uint64{uint64(id), uint64(s)}
				if _, isGate := gateOf[key]; isGate {
					t.Outgoing[s] = []TaskId{DecisionId(k)}
				} else if src, isCarry := carryOf[key]; isCarry {
					if last {
						// The final iteration has no successor; its carried
						// state drains into the decision task as ignored
						// inputs so it never pollutes the sinks.
						t.Outgoing[s] = []TaskId{DecisionId(k)}
					} else {
						dests := make([]TaskId, len(src.Targets))
						for i, b := range src.Targets {
							dests[i] = IterId(k+1, b.To)
						}
						t.Outgoing[s] = dests
					}
				}
				// An unbound sink slot stays a per-iteration sink.
			}
			tasks = append(tasks, t)
		}

		d := Task{Id: DecisionId(k), Callback: DecisionCallback}
		if last {
			// The final decision task also drains the carried slots, so
			// its Incoming must interleave gate and carry sources in
			// per-producer emission (ascending source-slot) order for the
			// producer-matching delivery to fill the right slots.
			type src struct {
				s    iterSource
				gate int // gate index, or -1 for a carry
			}
			merged := make([]src, 0, len(gates)+len(carries))
			for j, s := range gates {
				merged = append(merged, src{s: s, gate: j})
			}
			for _, s := range carries {
				merged = append(merged, src{s: s, gate: -1})
			}
			sort.Slice(merged, func(i, j int) bool {
				if merged[i].s.From != merged[j].s.From {
					return merged[i].s.From < merged[j].s.From
				}
				return merged[i].s.FromSlot < merged[j].s.FromSlot
			})
			lastGateIdx = make([]int, S)
			for i, m := range merged {
				d.Incoming = append(d.Incoming, IterId(k, m.s.From))
				if m.gate >= 0 {
					lastGateIdx[m.gate] = i
				}
			}
			// Unconditional: the bound was reached, the gated state drains
			// to the done sinks as-is.
			d.Outgoing = make([][]TaskId, S)
		} else {
			for _, s := range gates {
				d.Incoming = append(d.Incoming, IterId(k, s.From))
			}
			d.Outgoing = make([][]TaskId, 2*S)
			d.Cond = make([]int, 2*S)
			d.Branches = 2
			for j, s := range gates {
				dests := make([]TaskId, len(s.Targets))
				for i, b := range s.Targets {
					dests[i] = IterId(k+1, b.To)
				}
				d.Outgoing[j] = dests // branch 0: continue
				d.Cond[j] = 0
				d.Cond[S+j] = 1 // branch 1: done (sink)
			}
		}
		tasks = append(tasks, d)
	}

	g := &IterativeGraph{
		ExplicitGraph: explicitGraph(tasks, false), // tasks are fresh clones
		body:          body,
		pred:          pred,
		maxIter:       cfg.maxIter,
		gates:         gates,
		carries:       carries,
		lastGateIdx:   lastGateIdx,
	}
	var err error
	if g.plan, err = Compile(g.ExplicitGraph); err != nil {
		return nil, fmt.Errorf("core: Iterate produced an invalid graph: %w", err)
	}
	return g, nil
}

// MaxIter returns the loop's iteration bound.
func (g *IterativeGraph) MaxIter() int { return g.maxIter }

// Body returns the loop body graph the iterations were unrolled from.
func (g *IterativeGraph) Body() TaskGraph { return g.body }

// DecisionFunc returns the synthetic decision callback: it reassembles the
// iteration's gated sinks, runs the convergence predicate, and routes the
// loop state through the decision task's conditional fan-out — live
// payloads on the chosen branch, dead tokens on the other.
func (g *IterativeGraph) DecisionFunc() Callback {
	S := len(g.gates)
	return func(in []Payload, id TaskId) ([]Payload, error) {
		iter := int(id & (1<<IterShift - 1))
		if iter == g.maxIter-1 {
			// Iteration bound reached: unconditional drain of the gated
			// state (the remaining inputs hold the final iteration's
			// carried slots, deliberately dropped).
			out := make([]Payload, S)
			for j, idx := range g.lastGateIdx {
				out[j] = in[idx]
			}
			return out, nil
		}
		sinks := make(map[TaskId][]Payload, S)
		for j, s := range g.gates {
			sinks[s.From] = append(sinks[s.From], in[j])
		}
		done, err := g.pred(iter, sinks)
		if err != nil {
			return nil, fmt.Errorf("core: convergence predicate at iteration %d: %w", iter, err)
		}
		out := make([]Payload, 2*S)
		for j := 0; j < S; j++ {
			if done {
				out[j] = DeadToken()
				out[S+j] = in[j]
			} else {
				out[j] = in[j]
				out[S+j] = DeadToken()
			}
		}
		return out, nil
	}
}

// RegisterDecision installs the synthetic decision callback; call it
// alongside the body's callback registrations before running the graph.
func (g *IterativeGraph) RegisterDecision(c CallbackRegistrar) error {
	return c.RegisterCallback(DecisionCallback, g.DecisionFunc())
}

// Final decodes a run's results: it locates the converged iteration (the
// single decision task whose done branch ran) and returns its sink
// payloads keyed by the gate sources' body-local task ids — the same shape
// running the body alone would produce. Per-iteration sinks of unbound
// body slots are ignored.
func (g *IterativeGraph) Final(results map[TaskId][]Payload) (iter int, sinks map[TaskId][]Payload, err error) {
	iter = -1
	for k := 0; k < g.maxIter; k++ {
		if len(results[DecisionId(k)]) == 0 {
			continue
		}
		if iter >= 0 {
			return 0, nil, fmt.Errorf("core: iterations %d and %d both produced final sinks", iter, k)
		}
		iter = k
	}
	if iter < 0 {
		return 0, nil, fmt.Errorf("core: no iteration produced final sinks")
	}
	ps := results[DecisionId(iter)]
	if len(ps) != len(g.gates) {
		return 0, nil, fmt.Errorf("core: iteration %d produced %d final sinks, want %d", iter, len(ps), len(g.gates))
	}
	sinks = make(map[TaskId][]Payload, len(g.gates))
	for j, s := range g.gates {
		sinks[s.From] = append(sinks[s.From], ps[j])
	}
	return iter, sinks, nil
}

// NewIterativeMap places an unrolled iterative graph onto shards with
// iteration-stable placement: every copy of a body task lands on the same
// shard across iterations (so feedback edges and journal replay stay
// shard-local where the body allows it), and the per-iteration decision
// tasks rotate across shards.
func NewIterativeMap(shardCount int, g *IterativeGraph) TaskMap {
	bodyIdx := make(map[TaskId]int, g.body.Size())
	for i, id := range g.body.TaskIds() {
		bodyIdx[id] = i
	}
	return NewFuncMap(shardCount, g.TaskIds(), func(id TaskId) ShardId {
		if IsDecision(id) {
			return ShardId(int(id&(1<<IterShift-1)) % shardCount)
		}
		return ShardId(bodyIdx[BodyId(id)] % shardCount)
	})
}
