// Package conformance fuzz-tests the paper's central guarantee across the
// whole controller suite: for ANY valid task graph and any deterministic
// callbacks, every runtime controller produces byte-identical sink outputs,
// at any shard count. Random DAGs are generated with mixed fan-in/fan-out,
// multi-slot outputs, multicast edges and external inputs, and executed on
// serial, MPI (all modes), Charm++ (with aggressive load balancing) and
// both Legion controllers. Every run compared with serial goes through the
// invariant checker of internal/check.
package conformance

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/babelflow/babelflow-go/internal/charm"
	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/legion"
	"github.com/babelflow/babelflow-go/internal/mpi"
)

// mixCallback hashes the inputs together with the task id and emits one
// deterministic digest per output slot.
func mixCallback(g core.TaskGraph) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
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
		t, _ := g.Task(id)
		out := make([]core.Payload, len(t.Outgoing))
		for s := range out {
			buf := make([]byte, len(base)+1)
			copy(buf, base)
			buf[len(base)] = byte(s)
			out[s] = core.Buffer(buf)
		}
		return out, nil
	}
}

// externalInputsFor synthesizes one payload per ExternalInput slot.
func externalInputsFor(g core.TaskGraph) map[core.TaskId][]core.Payload {
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range g.TaskIds() {
		t, _ := g.Task(id)
		n := 0
		for _, in := range t.Incoming {
			if in == core.ExternalInput {
				n++
			}
		}
		for j := 0; j < n; j++ {
			b := make([]byte, 8)
			binary.LittleEndian.PutUint64(b, uint64(id)*31+uint64(j))
			initial[id] = append(initial[id], core.Buffer(b))
		}
	}
	return initial
}

// config is one controller configuration of the matrix and the checker
// observing it.
type config struct {
	name string
	ctrl core.Controller
	chk  *check.Checker
}

// allControllers instantiates the full suite for a graph and shard count,
// each controller observed by a checker of its own.
func allControllers(g core.TaskGraph, shards int) []config {
	m := core.NewGraphMap(shards, g)
	var out []config
	add := func(name string, tmap core.TaskMap, build func(core.Observer) core.Controller) {
		chk := new(check.Checker)
		c := build(chk)
		c.Initialize(g, tmap)
		out = append(out, config{name, c, chk})
	}
	add("serial", nil, func(obs core.Observer) core.Controller {
		s := core.NewSerial()
		s.Observer = obs
		return s
	})
	// mpi-roundrobin deals the ids out round-robin, ignoring the graph's
	// structure, so most edges cross ranks.
	rr := core.NewListMap(shards, g.TaskIds())
	for _, v := range []struct {
		name string
		tmap core.TaskMap
		opts []mpi.Option
	}{
		{"mpi", m, nil},
		{"mpi-inline", m, []mpi.Option{mpi.WithInline(true)}},
		{"mpi-serialize", m, []mpi.Option{mpi.WithAlwaysSerialize(true), mpi.WithWorkers(2)}},
		{"mpi-inline-serialize", m, []mpi.Option{mpi.WithInline(true), mpi.WithAlwaysSerialize(true)}},
		{"mpi-roundrobin", rr, nil},
		{"mpi-w1", m, []mpi.Option{mpi.WithWorkers(1)}},
	} {
		add(v.name, v.tmap, func(obs core.Observer) core.Controller {
			return mpi.New(append([]mpi.Option{mpi.WithObserver(obs)}, v.opts...)...)
		})
	}
	add("charm-lb1", nil, func(obs core.Observer) core.Controller {
		return charm.New(charm.Options{PEs: shards, LBPeriod: 1, Observer: obs})
	})
	add("charm-nolb", nil, func(obs core.Observer) core.Controller {
		return charm.New(charm.Options{PEs: shards, Observer: obs})
	})
	add("legion-spmd", m, func(obs core.Observer) core.Controller {
		return legion.NewSPMD(legion.Options{Observer: obs})
	})
	add("legion-il", nil, func(obs core.Observer) core.Controller {
		return legion.NewIndexLaunch(legion.Options{Workers: 2, Observer: obs})
	})
	return out
}

// checkMatrix runs g on every configuration of allControllers at shards,
// one subtest each named prefix/configuration, with cb bound to every
// callback id and fresh inputs per run (a run consumes its inputs). Each
// run must match serial with every task observed once and leave no
// goroutine behind. It returns the serial reference.
func checkMatrix(t *testing.T, prefix string, g core.TaskGraph, shards int, cb core.Callback, inputs func() map[core.TaskId][]core.Payload) check.Reference {
	t.Helper()
	ref := check.Serial(t, g, registerAll(g, cb), inputs())
	for _, c := range allControllers(g, shards) {
		t.Run(prefix+"/"+c.name, func(t *testing.T) {
			check.NoLeak(t)
			if err := registerAll(g, cb)(c.ctrl); err != nil {
				t.Fatal(err)
			}
			got, err := c.ctrl.Run(inputs())
			if err != nil {
				t.Fatal(err)
			}
			c.chk.Run(t, ref, got)
		})
	}
	return ref
}

// TestRandomDAGConformance is the cross-controller fuzz: 20 random DAGs of
// varying size, each executed on 11 controller configurations (including
// the inline driver with every payload serialized, a round-robin placement
// and a single worker) at several shard counts; all sink outputs must be
// byte-identical to the serial reference.
func TestRandomDAGConformance(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		g := check.RandomDAG(5+trial*4, int64(1000+trial))
		if err := core.Validate(g); err != nil {
			t.Fatalf("trial %d: generated invalid graph: %v", trial, err)
		}
		checkMatrix(t, fmt.Sprintf("trial%d", trial), g, 1+trial%5, mixCallback(g),
			func() map[core.TaskId][]core.Payload { return externalInputsFor(g) })
	}
}

// TestMain checks that the suite as a whole leaves no goroutine behind:
// its parallel tests share the process, so per-run counts are not exact.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if err := check.Settle(baseline); err != nil && code == 0 {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}
