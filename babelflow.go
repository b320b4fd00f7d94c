// Package babelflow is a Go implementation of BabelFlow (Petruzza,
// Treichler, Pascucci, Bremer — "BabelFlow: An Embedded Domain Specific
// Language for Parallel Analysis and Visualization", IPDPS 2018): an
// embedded DSL that describes parallel analysis and visualization
// algorithms as task graphs, executed unmodified on any of several runtime
// controllers.
//
// An algorithm is written once as three ingredients:
//
//  1. Callbacks — one function per task type, operating on Payloads;
//  2. Serialization for the objects exchanged between tasks;
//  3. A TaskGraph describing the dataflow (use a provided prototype such as
//     NewReduction, NewBroadcast, NewBinarySwap, NewKWayMerge,
//     NewNeighbor2D, or implement the interface procedurally).
//
// The graph then runs on the controller matching the host application's
// software stack: NewMPI (static task map, asynchronous point-to-point
// messages, thread pool), NewCharm (chare array with dynamic load
// balancing), NewLegionSPMD / NewLegionIndexLaunch (region-based data
// movement), or NewSerial for debugging — all guaranteeing the same tasks
// execute with the same results.
//
// The mirror of Listing 1 of the paper:
//
//	graph, _ := babelflow.NewReduction(blocks, valence)
//	taskMap := babelflow.NewModuloMap(ranks, graph.Size())
//	c := babelflow.NewMPI(babelflow.WithWorkers(workers))
//	c.Initialize(graph, taskMap)
//	babelflow.RegisterCallbacks(c, graph, map[babelflow.Role]babelflow.Callback{
//		babelflow.RoleLeaf:  volumeRender, // one per block
//		babelflow.RoleInner: composite,    // internal nodes
//		babelflow.RoleRoot:  writeImage,   // root
//	})
//	results, err := c.Run(initialInputs)
//
// Runs can be bounded: every controller implements RunContext
// (cancellation and deadlines, with errors testable against ErrCancelled).
// Replay-based peer-loss recovery and live joins and drains run inside this
// module (the MPI controller's RunElastic, and cmd/bfrun's forked -faults
// and -elastic sessions); ErrRetriesExhausted marks a recovery that gave
// up.
package babelflow

import (
	"io"
	"time"

	"github.com/babelflow/babelflow-go/internal/charm"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/dot"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/legion"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/trace"
)

// Core EDSL types, re-exported from the internal core package.
type (
	// TaskId is the globally unique identifier of a logical task.
	TaskId = core.TaskId
	// CallbackId identifies a task type.
	CallbackId = core.CallbackId
	// ShardId identifies an execution shard (rank / PE / shard).
	ShardId = core.ShardId
	// Task is the logical description of one unit of computation.
	Task = core.Task
	// Payload is the unit of data exchanged between tasks.
	Payload = core.Payload
	// Serializable is implemented by payload objects that can encode
	// themselves for transfer across shard boundaries.
	Serializable = core.Serializable
	// Callback implements one task type.
	Callback = core.Callback
	// TaskGraph is the procedural dataflow description.
	TaskGraph = core.TaskGraph
	// TaskMap assigns tasks to shards.
	TaskMap = core.TaskMap
	// Controller executes a task graph on one runtime.
	Controller = core.Controller
	// Observer receives a run's execution events.
	Observer = core.Observer
	// Event is one execution event: a task ran, a task replayed from the
	// lineage ledger, or a fault-tolerant run retried an epoch.
	Event = core.Event
)

// ExternalInput marks dataflow inputs provided from outside the graph.
const ExternalInput = core.ExternalInput

// Role names the structural position a callback fills in a graph prototype,
// replacing positional registration by index into Callbacks().
type Role = core.Role

// Roles used by the built-in graph prototypes.
const (
	RoleLeaf    = core.RoleLeaf
	RoleInner   = core.RoleInner
	RoleRoot    = core.RoleRoot
	RoleSource  = core.RoleSource
	RoleRelay   = core.RoleRelay
	RoleSink    = core.RoleSink
	RoleFinal   = core.RoleFinal
	RoleExtract = core.RoleExtract
	RoleProcess = core.RoleProcess
)

// RegisterCallbacks registers one callback per named role of the graph —
// the self-documenting replacement for registering by position in
// Callbacks(). Every role the graph defines must be implemented.
func RegisterCallbacks(c core.CallbackRegistrar, g TaskGraph, impls map[Role]Callback) error {
	return core.RegisterCallbacks(c, g, impls)
}

// Typed errors of the execution layer.
var (
	// ErrCancelled marks a RunContext aborted by context cancellation or
	// deadline expiry; test with errors.Is.
	ErrCancelled = core.ErrCancelled
	// ErrRetriesExhausted marks a fault-tolerant run that failed on every
	// attempt its retry policy allowed.
	ErrRetriesExhausted = core.ErrRetriesExhausted
)

// Buffer returns a payload wrapping a binary buffer.
func Buffer(b []byte) Payload { return core.Buffer(b) }

// Object returns a payload wrapping an in-memory object.
func Object(obj any) Payload { return core.Object(obj) }

// Validate checks the structural consistency of a task graph.
func Validate(g TaskGraph) error { return core.Validate(g) }

// Levels partitions a graph into rounds of non-interfering tasks.
func Levels(g TaskGraph) ([][]TaskId, error) { return core.Levels(g) }

// NewModuloMap returns the default round-robin task map of Listing 3.
func NewModuloMap(shardCount, taskCount int) TaskMap {
	return core.NewModuloMap(shardCount, taskCount)
}

// NewBlockMap returns a contiguous-blocks task map.
func NewBlockMap(shardCount, taskCount int) TaskMap {
	return core.NewBlockMap(shardCount, taskCount)
}

// NewGraphMap is the default placement of a graph: each dependency level
// is cut into shardCount runs of ascending ids, so heap-numbered trees keep
// whole subtrees on one shard and every level is balanced to within one
// task.
func NewGraphMap(shardCount int, g TaskGraph) TaskMap {
	return core.NewGraphMap(shardCount, g)
}

// Prototypical task graphs.

// Reduction is the k-way reduction tree of Listing 2.
type Reduction = graphs.Reduction

// Broadcast is the k-way broadcast tree.
type Broadcast = graphs.Broadcast

// BinarySwap is the binary-swap compositing dataflow.
type BinarySwap = graphs.BinarySwap

// KWayMerge is the k-way merge (all-reduce) dataflow.
type KWayMerge = graphs.KWayMerge

// Neighbor2D is the two-phase halo-exchange dataflow.
type Neighbor2D = graphs.Neighbor2D

// GraphBuilder composes task graphs under id prefixes.
type GraphBuilder = graphs.Builder

// NewReduction returns a k-way reduction over leafs = valence^d leaves.
func NewReduction(leafs, valence int) (*Reduction, error) {
	return graphs.NewReduction(leafs, valence)
}

// NewBroadcast returns a k-way broadcast over leafs = valence^d leaves.
func NewBroadcast(leafs, valence int) (*Broadcast, error) {
	return graphs.NewBroadcast(leafs, valence)
}

// NewBinarySwap returns a binary-swap dataflow over a power-of-two number
// of participants.
func NewBinarySwap(participants int) (*BinarySwap, error) {
	return graphs.NewBinarySwap(participants)
}

// NewKWayMerge returns a k-way merge (reduce + broadcast) dataflow.
func NewKWayMerge(leafs, valence int) (*KWayMerge, error) {
	return graphs.NewKWayMerge(leafs, valence)
}

// NewNeighbor2D returns a 2-D neighbor dataflow over a w x h cell grid.
func NewNeighbor2D(w, h int) (*Neighbor2D, error) {
	return graphs.NewNeighbor2D(w, h)
}

// NewGraphBuilder returns an empty graph-composition builder.
func NewGraphBuilder() *GraphBuilder { return graphs.NewBuilder() }

// SubGraph is a fluent handle on one sub-graph staged in a GraphBuilder;
// obtain one with Builder.Sub and optionally wrap it in a convergence loop
// with its Iterate method.
type SubGraph = graphs.Sub

// Iterative dataflow.

// IterativeGraph is a convergence loop unrolled into a static DAG; it runs
// on every controller and transport tier unchanged. Build one with Iterate
// (or Builder.Sub(...).Iterate when composing), register its synthetic
// decision callback via RegisterDecision, and decode the converged sinks of
// a run with Final.
type IterativeGraph = core.IterativeGraph

// ConvergencePredicate decides, after each iteration of an iterative graph,
// whether the loop has converged; it receives the gated sink payloads keyed
// by body-local task id.
type ConvergencePredicate = core.ConvergencePredicate

// IterOption configures Iterate; see WithMaxIterations, WithGate, WithCarry.
type IterOption = core.IterOption

// Iterate unrolls a convergence loop over the body graph: each iteration
// re-flows the body, a synthetic per-iteration decision task runs pred over
// the gated sink payloads, and the loop stops when pred holds (or at the
// iteration bound). Feedback edges are declared with WithGate/WithCarry and
// must cover every external input of the body.
func Iterate(body TaskGraph, pred ConvergencePredicate, opts ...IterOption) (*IterativeGraph, error) {
	return core.Iterate(body, pred, opts...)
}

// WithMaxIterations bounds the loop at n iterations (default
// core.DefaultMaxIterations); the final iteration drains its state even if
// the predicate never held.
func WithMaxIterations(n int) IterOption { return core.MaxIterations(n) }

// WithGate declares a predicate-visible feedback edge: the sink payload of
// (from, fromSlot) feeds (to, toSlot) in the next iteration, is visible to
// the convergence predicate, and becomes a final sink on convergence.
func WithGate(from TaskId, fromSlot int, to TaskId, toSlot int) IterOption {
	return core.Gate(from, fromSlot, to, toSlot)
}

// WithCarry declares a pass-through feedback edge for loop-invariant state,
// skipping the decision task and the predicate.
func WithCarry(from TaskId, fromSlot int, to TaskId, toSlot int) IterOption {
	return core.Carry(from, fromSlot, to, toSlot)
}

// NewIterativeMap places an unrolled iterative graph onto shards with
// iteration-stable placement: each body task keeps its shard across
// iterations and the decision tasks rotate.
func NewIterativeMap(shardCount int, g *IterativeGraph) TaskMap {
	return core.NewIterativeMap(shardCount, g)
}

// Runtime controllers.

// MPIOption configures the MPI controller at construction; see WithWorkers,
// WithTransport, WithObserver.
type MPIOption = mpi.Option

// WithWorkers sets the MPI controller's global worker budget.
func WithWorkers(n int) MPIOption { return mpi.WithWorkers(n) }

// WithTransport installs a transport factory — the seam fault injection and
// custom interconnects plug into.
func WithTransport(t mpi.TransportFactory) MPIOption { return mpi.WithTransport(t) }

// WithObserver installs the execution observer.
func WithObserver(obs Observer) MPIOption { return mpi.WithObserver(obs) }

// WithInline selects inline (single-threaded, no worker pool) execution.
func WithInline(inline bool) MPIOption { return mpi.WithInline(inline) }

// WithAlwaysSerialize forces every payload through its wire form even for
// rank-local deliveries, proving serialization round-trips are lossless.
func WithAlwaysSerialize(always bool) MPIOption { return mpi.WithAlwaysSerialize(always) }

// WithJournal persists each rank's lineage ledger to an append-only,
// CRC-framed journal under dir (one rank-N subdirectory per rank). A run
// killed at any point resumes from the same directory: journaled tasks
// replay their recorded outputs and only the remaining frontier executes.
func WithJournal(dir string) MPIOption { return mpi.WithJournal(dir) }

// WithJournalGroupCommit selects SyncGroupCommit with the given commit
// window: the journal fsyncs once per interval, or every records appends,
// whichever comes first. Zero values keep the defaults (2ms, 64 records).
// Appends return immediately; a crash loses at most one window, which
// resume re-executes.
func WithJournalGroupCommit(interval time.Duration, records int) MPIOption {
	return mpi.WithJournalGroupCommit(interval, records)
}

// CharmOptions configures the Charm++ controller.
type CharmOptions = charm.Options

// LegionOptions configures the Legion controllers.
type LegionOptions = legion.Options

// NewSerial returns the single-threaded reference controller; useful for
// debugging a dataflow, per the paper's over-decomposition property.
func NewSerial() Controller { return core.NewSerial() }

// NewMPI returns the MPI runtime controller (§IV-A), configured by
// functional options applied left to right:
//
//	babelflow.NewMPI(babelflow.WithWorkers(8), babelflow.WithObserver(obs))
func NewMPI(opts ...MPIOption) Controller { return mpi.New(opts...) }

// NewCharm returns the Charm++ runtime controller (§IV-B).
func NewCharm(opt CharmOptions) Controller { return charm.New(opt) }

// NewLegionSPMD returns the Legion SPMD controller (§IV-C).
func NewLegionSPMD(opt LegionOptions) Controller { return legion.NewSPMD(opt) }

// NewLegionIndexLaunch returns the Legion index-launch controller (§IV-C).
func NewLegionIndexLaunch(opt LegionOptions) Controller { return legion.NewIndexLaunch(opt) }

// WriteDot renders a task graph (or a filtered subset) in the Dot graph
// language for debugging, as the paper provides.
func WriteDot(w io.Writer, g TaskGraph, opt DotOptions) error { return dot.Write(w, g, opt) }

// DotOptions controls Dot rendering.
type DotOptions = dot.Options

// In-situ coupling and tracing.

// InSituGroup is the in-situ coupling mode of the MPI controller (§III):
// each simulation rank instantiates only its assigned sub-graph and feeds
// it rank-local data.
type InSituGroup = mpi.Group

// InSituShard is one rank's handle on an in-situ execution.
type InSituShard = mpi.Shard

// NewInSituGroup prepares an in-situ MPI execution over the task map's
// shards; obtain per-rank handles with Shard and call Run concurrently. The
// options follow NewMPI.
func NewInSituGroup(g TaskGraph, m TaskMap, opts ...MPIOption) (*InSituGroup, error) {
	return mpi.NewGroup(g, m, opts...)
}

// TraceRecorder records per-task execution spans: pass the recorder as the
// controller's Observer; no Wrap is needed.
type TraceRecorder = trace.Recorder

// TraceSpan is one recorded task execution.
type TraceSpan = trace.Span

// TraceSummary aggregates a trace.
type TraceSummary = trace.Summary

// NewTraceRecorder returns an empty trace recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// SummarizeTrace computes wall time, per-shard busy time and the measured
// critical path of a recorded execution.
func SummarizeTrace(g TaskGraph, spans []TraceSpan) (TraceSummary, error) {
	return trace.Summarize(g, spans)
}

// WriteTraceCSV emits spans as CSV for Gantt plotting.
func WriteTraceCSV(w io.Writer, spans []TraceSpan) error { return trace.WriteCSV(w, spans) }
