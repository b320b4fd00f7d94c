// Command bfrun executes one of the paper's use cases (built by the
// internal/usecase catalog) end to end on a chosen runtime controller, over
// synthetic data, and reports timing and a correctness check against the
// serial reference.
//
// Usage:
//
//	bfrun -case mergetree -runtime mpi -ranks 8 -n 32
//	bfrun -case render -runtime charm -blocks 8
//	bfrun -case register -runtime legion-spmd
//	bfrun -case register-iter -runtime mpi -ranks 4
//
// The multi-process modes (-transport tcp, -journal/-resume, -elastic) and
// -faults are described in wire.go, elastic.go and faults.go.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	babelflow "github.com/babelflow/babelflow-go"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/sim"
	"github.com/babelflow/babelflow-go/internal/trace"
	"github.com/babelflow/babelflow-go/internal/usecase"
	"github.com/babelflow/babelflow-go/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bfrun:", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a rejected command line: main exits with status 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, a ...any) error { return usageError(fmt.Sprintf(format, a...)) }

// verdict ends a run whose summary line is already printed: an error when
// the line reports a result that does not match its reference.
func verdict(ok bool) error {
	if !ok {
		return errors.New("result does not match the reference")
	}
	return nil
}

// config is the parsed command line.
type config struct {
	useCase   string
	caseSet   bool // -case was passed explicitly
	runtime   string
	ranks     int
	n, blocks int

	traceTo string
	whatIf  int

	transport string
	tierName  string
	tier      wire.Tier
	wireRank  int
	wireAddr  string
	wireGate  string

	faults    bool
	killRank  int
	killAfter int

	journal string
	resume  string
	killAll int

	elastic    bool
	join       int
	joinAfter  time.Duration
	drain      int
	drainAfter time.Duration
	pace       time.Duration
}

// forked reports whether the command line asks for one worker process per
// rank over the TCP fabric.
func (cfg config) forked() bool {
	return cfg.transport == "tcp" || cfg.journal != "" || cfg.resume != ""
}

// build constructs the use case this command line names.
func (cfg config) build() (usecase.Case, error) {
	return usecase.Build(cfg.useCase, usecase.Params{"n": cfg.n, "blocks": cfg.blocks})
}

// run is bfrun: parse and vet the command line, then dispatch to the one
// mode it selects. Summary lines go to stdout.
func run(args []string, stdout io.Writer) error {
	var cfg config
	fs := flag.NewFlagSet("bfrun", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main prints the one-line error; -h prints the flag list below
	fs.StringVar(&cfg.useCase, "case", "mergetree", "mergetree | render | register | register-iter")
	fs.StringVar(&cfg.runtime, "runtime", "mpi", "serial | mpi | original-mpi | charm | legion-spmd | legion-il")
	fs.IntVar(&cfg.ranks, "ranks", 4, "ranks / PEs / shards; worker processes in the multi-process modes")
	fs.IntVar(&cfg.n, "n", 32, "domain edge length")
	fs.IntVar(&cfg.blocks, "blocks", 8, "blocks (power of two, at least 4)")
	fs.StringVar(&cfg.traceTo, "trace", "", "write a per-task execution trace (CSV) here (in-memory runs)")
	fs.IntVar(&cfg.whatIf, "whatif", 0, "with -trace: replay the measured trace on all simulated runtime models at this core count")
	fs.StringVar(&cfg.transport, "transport", "mem", "mem | tcp (tcp forks one worker process per rank)")
	fs.IntVar(&cfg.wireRank, "wire-rank", -1, "internal: run as TCP worker for this rank")
	fs.StringVar(&cfg.wireAddr, "wire-addr", "", "internal: rendezvous address for -wire-rank")
	fs.BoolVar(&cfg.faults, "faults", false, "run under fault injection: kill one peer, recover via replay, verify against serial")
	fs.IntVar(&cfg.killRank, "kill-rank", 1, "with -faults: the rank to kill")
	fs.IntVar(&cfg.killAfter, "kill-after", 0, "with -faults: inter-rank messages the victim sends before dying")
	fs.StringVar(&cfg.journal, "journal", "", "with -transport tcp: persist per-rank lineage journals under this directory")
	fs.StringVar(&cfg.resume, "resume", "", "restart a crashed -journal run from its directory over TCP and verify sink digests against serial")
	fs.IntVar(&cfg.killAll, "kill-all-after", -1, "with -journal: kill EVERY rank (including rank 0) after it sends this many inter-rank messages, seeding a resumable crash")
	fs.StringVar(&cfg.tierName, "wire-tier", "auto", "with -transport tcp: transport between co-located ranks (auto | tcp | unix | shm)")
	fs.BoolVar(&cfg.elastic, "elastic", false, "run with elastic membership: fork -ranks workers, join -join more mid-run, drain member -drain, verify digests against serial")
	fs.IntVar(&cfg.join, "join", 0, "with -elastic: workers to join mid-run")
	fs.DurationVar(&cfg.joinAfter, "join-after", 150*time.Millisecond, "with -elastic: when the joiners are forked")
	fs.IntVar(&cfg.drain, "drain", -1, "with -elastic: member to gracefully drain mid-run (-1 none)")
	fs.DurationVar(&cfg.drainAfter, "drain-after", 400*time.Millisecond, "with -elastic: when the drain request is sent")
	fs.DurationVar(&cfg.pace, "elastic-pace", 20*time.Millisecond, "with -elastic: per-task delay so membership events land mid-run")
	fs.StringVar(&cfg.wireGate, "wire-gate", "", "internal: run as elastic worker against this membership gate")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.Usage()
			return nil
		}
		return usagef("%v (see bfrun -h)", err)
	}
	fs.Visit(func(f *flag.Flag) { cfg.caseSet = cfg.caseSet || f.Name == "case" })
	var err error
	if cfg.tier, err = wire.ParseTier(cfg.tierName); err != nil {
		return usageError(err.Error())
	}
	if err := cfg.validate(); err != nil {
		return err
	}

	switch {
	case cfg.wireGate != "":
		return runElasticWorker(cfg, stdout)
	case cfg.elastic:
		return runElasticParent(cfg, stdout)
	case cfg.wireRank >= 0:
		return runWireWorker(cfg, stdout)
	case cfg.faults:
		return runFaults(cfg, stdout)
	case cfg.forked():
		return runWireParent(cfg, stdout)
	}
	return runInMemory(cfg, stdout)
}

// validate rejects command lines no mode can honour, before anything is
// built or forked.
func (cfg config) validate() error {
	if cfg.ranks < 1 {
		return usagef("-ranks must be at least 1, got %d", cfg.ranks)
	}
	if cfg.blocks < 4 || cfg.blocks&(cfg.blocks-1) != 0 {
		return usagef("-blocks must be a power of two, at least 4, got %d", cfg.blocks)
	}
	if cfg.transport != "mem" && cfg.transport != "tcp" {
		return usagef("unknown -transport %q (want mem or tcp)", cfg.transport)
	}
	if cfg.traceTo != "" && (cfg.forked() || cfg.elastic || cfg.faults) {
		return usagef("-trace records in-memory runs only; drop -transport tcp / -journal / -resume / -elastic / -faults")
	}
	if cfg.forked() && !cfg.elastic && !cfg.faults && cfg.runtime != "mpi" {
		return usagef("-transport tcp supports -runtime mpi, got %q", cfg.runtime)
	}
	if cfg.killAll >= 0 && cfg.journal == "" {
		return usagef("-kill-all-after needs -journal (a crash without a journal is not resumable)")
	}
	if cfg.elastic && cfg.drain >= cfg.ranks+cfg.join {
		return usagef("-drain %d names a member that will never exist (%d total)", cfg.drain, cfg.ranks+cfg.join)
	}
	return nil
}

// controller is the one runtime switch. obs, when non-nil, observes every
// task execution.
func controller(runtime string, ranks int, obs core.Observer) (core.Controller, error) {
	switch runtime {
	case "serial":
		s := core.NewSerial()
		s.Observer = obs
		return s, nil
	case "mpi":
		return babelflow.NewMPI(babelflow.WithObserver(obs)), nil
	case "original-mpi":
		return babelflow.NewMPI(babelflow.WithInline(true), babelflow.WithObserver(obs)), nil
	case "charm":
		return babelflow.NewCharm(babelflow.CharmOptions{PEs: ranks, LBPeriod: 8, Observer: obs}), nil
	case "legion-spmd":
		return babelflow.NewLegionSPMD(babelflow.LegionOptions{Observer: obs}), nil
	case "legion-il":
		return babelflow.NewLegionIndexLaunch(babelflow.LegionOptions{Observer: obs}), nil
	}
	return nil, usagef("unknown -runtime %q", runtime)
}

// wrappedRegistrar interposes wrap on every registered callback (the
// elastic pace).
type wrappedRegistrar struct {
	inner core.CallbackRegistrar
	wrap  func(core.CallbackId, core.Callback) core.Callback
}

func (w wrappedRegistrar) RegisterCallback(cb core.CallbackId, fn core.Callback) error {
	return w.inner.RegisterCallback(cb, w.wrap(cb, fn))
}

// runInMemory runs the use case in this process on the chosen controller
// and prints its one-line summary with the paper-level check.
func runInMemory(cfg config, stdout io.Writer) error {
	c, err := cfg.build()
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	var obs core.Observer
	if cfg.traceTo != "" {
		rec = trace.NewRecorder()
		obs = rec
	}
	ctrl, err := controller(cfg.runtime, cfg.ranks, obs)
	if err != nil {
		return err
	}
	if err := ctrl.Initialize(c.Graph, c.Map(cfg.ranks)); err != nil {
		return err
	}
	if err := c.Register(ctrl); err != nil {
		return err
	}
	start := time.Now()
	out, err := ctrl.Run(c.Initial)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	summary, ok, err := c.Check(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-9s %-12s %d tasks, %d shards: %v  %s\n",
		cfg.useCase, cfg.runtime, c.Graph.Size(), cfg.ranks, elapsed.Round(time.Millisecond), summary)
	if rec != nil {
		if err := writeTrace(cfg, stdout, rec.Spans(), c.Graph); err != nil {
			return err
		}
	}
	return verdict(ok)
}

// writeTrace dumps the recorded spans and prints the trace summary and,
// with -whatif, the replay under every simulated runtime model.
func writeTrace(cfg config, stdout io.Writer, spans []trace.Span, g core.TaskGraph) error {
	var csv bytes.Buffer
	if err := trace.WriteCSV(&csv, spans); err != nil {
		return err
	}
	if err := os.WriteFile(cfg.traceTo, csv.Bytes(), 0o644); err != nil {
		return err
	}
	g, err := core.Compile(g) // once, for the summary and every what-if model
	if err != nil {
		return err
	}
	sum, err := trace.Summarize(g, spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %d spans -> %s  wall=%v critical-path=%v utilization=%.2f\n",
		sum.Tasks, cfg.traceTo, sum.Wall.Round(time.Microsecond),
		sum.CriticalPath.Round(time.Microsecond), sum.Utilization())
	if cfg.whatIf > 0 {
		results, err := sim.WhatIf(g, spans, nil, sim.ShaheenII(cfg.whatIf))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "what-if on %d simulated cores:\n", cfg.whatIf)
		for _, name := range []string{"IceT", "MPI", "Original MPI", "Charm++", "Legion", "Legion IL"} {
			fmt.Fprintf(stdout, "  %-14s %8.3fs (compute %.3fs, overhead %.3fs)\n",
				name, results[name].Makespan, results[name].Compute, results[name].Overhead)
		}
	}
	return nil
}
