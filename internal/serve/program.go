// Program registry: the named dataflows a bfserve instance is willing to
// execute. A submission names a program plus integer parameters; the
// program builds a fresh mpi.Submission per run — graph, callbacks and
// newly allocated external inputs (runs consume their inputs).
//
// Two families ship by default: synthetic prototypes over the figure
// graphs (reduction, broadcast, k-way merge, binary swap) with a
// deterministic hash-mix callback, sized by parameters — the service
// benchmark and smoke currency; and the paper's use cases (mergetree,
// render, register, plus the iterative register-iter refinement loop),
// built by the internal/usecase catalog.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/usecase"
)

// Params carries a submission's integer knobs (graph size, payload bytes,
// …). Missing keys fall back to per-program defaults.
type Params = usecase.Params

// Program is one named dataflow the service can run.
type Program struct {
	// Name is the submission key.
	Name string
	// About is a one-line description surfaced by the HTTP control plane.
	About string
	// Build constructs a fresh submission for one run.
	Build func(p Params) (mpi.Submission, error)
}

// Registry maps program names to builders.
type Registry struct {
	byName map[string]Program
	names  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Program)}
}

// Add registers a program, replacing any previous holder of the name.
func (r *Registry) Add(p Program) {
	if _, dup := r.byName[p.Name]; !dup {
		r.names = append(r.names, p.Name)
		sort.Strings(r.names)
	}
	r.byName[p.Name] = p
}

// Lookup returns the named program.
func (r *Registry) Lookup(name string) (Program, bool) {
	p, ok := r.byName[name]
	return p, ok
}

// Names lists the registered programs in sorted order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// Build constructs a fresh submission for the named program.
func (r *Registry) Build(name string, p Params) (mpi.Submission, error) {
	prog, ok := r.byName[name]
	if !ok {
		return mpi.Submission{}, fmt.Errorf("serve: unknown program %q (have %v)", name, r.names)
	}
	return prog.Build(p)
}

// ReferenceDigest executes the named program one-shot on the serial
// reference controller and digests its sinks — the ground truth a warm
// service run's digest must match byte for byte.
func (r *Registry) ReferenceDigest(name string, p Params) (string, error) {
	sub, err := r.Build(name, p)
	if err != nil {
		return "", err
	}
	out, err := usecase.Reference(usecase.Case{Graph: sub.Graph, Register: sub.Register, Initial: sub.Initial})
	if err != nil {
		return "", err
	}
	defer releaseSinks(out)
	return SinkDigest(out)
}

// DefaultRegistry returns the stock program set.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Add(Program{
		Name:  "reduction",
		About: "k-ary reduction tree over hash-mix tasks (blocks, valence, payload)",
		Build: func(p Params) (mpi.Submission, error) {
			g, err := graphs.NewReduction(p.Get("blocks", 8), p.Get("valence", 2))
			if err != nil {
				return mpi.Submission{}, err
			}
			return prototypeSubmission(g, p), nil
		},
	})
	r.Add(Program{
		Name:  "broadcast",
		About: "k-ary broadcast tree over hash-mix tasks (blocks, valence, payload)",
		Build: func(p Params) (mpi.Submission, error) {
			g, err := graphs.NewBroadcast(p.Get("blocks", 8), p.Get("valence", 2))
			if err != nil {
				return mpi.Submission{}, err
			}
			return prototypeSubmission(g, p), nil
		},
	})
	r.Add(Program{
		Name:  "kwaymerge",
		About: "k-way merge (reduce + broadcast back) over hash-mix tasks (blocks, valence, payload)",
		Build: func(p Params) (mpi.Submission, error) {
			g, err := graphs.NewKWayMerge(p.Get("blocks", 8), p.Get("valence", 2))
			if err != nil {
				return mpi.Submission{}, err
			}
			return prototypeSubmission(g, p), nil
		},
	})
	r.Add(Program{
		Name:  "binaryswap",
		About: "binary-swap compositing exchange over hash-mix tasks (blocks, payload)",
		Build: func(p Params) (mpi.Submission, error) {
			g, err := graphs.NewBinarySwap(p.Get("blocks", 8))
			if err != nil {
				return mpi.Submission{}, err
			}
			return prototypeSubmission(g, p), nil
		},
	})
	for _, uc := range []struct{ name, about string }{
		{"mergetree", "distributed merge-tree segmentation use case (n, blocks)"},
		{"render", "volume-render + tree compositing use case (n, blocks)"},
		{"register", "image-registration neighborhood-exchange use case (grid, tile)"},
		{"register-iter", "iterative registration refinement loop under core.Iterate (grid, tile, maxiter)"},
	} {
		r.Add(Program{
			Name:  uc.name,
			About: uc.about,
			// Map stays nil: the service places a submission itself.
			Build: func(p Params) (mpi.Submission, error) {
				c, err := usecase.Build(uc.name, p)
				return mpi.Submission{Graph: c.Graph, Register: c.Register, Initial: c.Initial}, err
			},
		})
	}
	return r
}

// prototypeSubmission wires a figure graph with the deterministic hash-mix
// callback on every task type and synthesized external inputs of `payload`
// bytes per slot. The graph is compiled here, once: the plan is the
// submission's graph, so neither the callback, the input synthesis nor the
// run's Initialize walks the procedural graph again. A graph that does not
// compile is passed on as is, for Submit to report.
func prototypeSubmission(g core.TaskGraph, p Params) mpi.Submission {
	plan, err := core.Compile(g)
	if err != nil {
		return mpi.Submission{Graph: g}
	}
	mix := mixCallback(plan)
	return mpi.Submission{
		Graph: plan,
		Register: func(c core.CallbackRegistrar) error {
			for _, cb := range plan.Callbacks() {
				if err := c.RegisterCallback(cb, mix); err != nil {
					return err
				}
			}
			return nil
		},
		Initial: externalInputsFor(plan, p.Get("payload", 64)),
	}
}

// mixCallback returns a deterministic callback hashing the task id and all
// input bytes into each output slot — the same shape the conformance suite
// uses, so any routing, interleaving or isolation defect flips the digest.
// It counts output slots on the plan, by dense index. The body is a named
// function: inlined with the closure into its caller, the hash state
// escaped to the heap, one more allocation per task.
func mixCallback(plan *core.Plan) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) { return mixOutputs(plan, in, id) }
}

// mixOutputs is the hash-mix callback on a task of plan.
func mixOutputs(plan *core.Plan, in []core.Payload, id core.TaskId) ([]core.Payload, error) {
	h := sha256.New()
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], uint64(id))
	h.Write(idb[:])
	for _, p := range in {
		w, err := p.Wire()
		if err != nil {
			return nil, err
		}
		h.Write(w)
	}
	base := h.Sum(nil)
	i, _ := plan.Index(id)
	out := make([]core.Payload, len(plan.TaskAt(i).Outgoing))
	for s := range out {
		buf := make([]byte, len(base)+1)
		copy(buf, base)
		buf[len(base)] = byte(s)
		out[s] = core.Buffer(buf)
	}
	return out, nil
}

// externalInputsFor synthesizes one deterministic payload of size bytes per
// ExternalInput slot. Every payload is a capacity-capped window of one byte
// array, and every task's list a window of one payload array.
func externalInputsFor(p *core.Plan, size int) map[core.TaskId][]core.Payload {
	if size < 8 {
		size = 8
	}
	slots, fed := 0, 0
	for i := range p.Size() {
		if k := p.Externals(i); k > 0 {
			slots, fed = slots+k, fed+1
		}
	}
	data := make([]byte, slots*size)
	payloads := make([]core.Payload, slots)
	initial := make(map[core.TaskId][]core.Payload, fed)
	for i, id := range p.TaskIds() {
		k := p.Externals(i)
		if k == 0 {
			continue
		}
		ps := payloads[:k:k]
		payloads = payloads[k:]
		for j := range ps {
			b := data[:size:size]
			data = data[size:]
			binary.LittleEndian.PutUint64(b, uint64(id)*31+uint64(j))
			for off := 8; off < size; off++ {
				b[off] = byte(off ^ int(id))
			}
			ps[j] = core.Buffer(b)
		}
		initial[id] = ps
	}
	return initial
}
