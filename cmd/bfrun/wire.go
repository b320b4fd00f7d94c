// Multi-process execution: -transport tcp runs the MPI controller across
// real OS processes connected by the TCP fabric (internal/wire). The parent
// process computes the serial reference, forks one worker per rank with the
// same case parameters, and verifies the workers' sink digests against the
// reference — the paper's byte-identical-output guarantee, checked across
// process boundaries.
//
//	bfrun -case mergetree -runtime mpi -transport tcp -ranks 4
//
// Workers are ordinary bfrun invocations with the internal -wire-rank and
// -wire-addr flags set; every process builds the same case from the
// catalog, so the rendezvous handshake verifies that all ranks agree on the
// dataflow before any payload moves.
package main

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// workerArgs is the command line every forked worker shares: the case
// parameters that make it build the parent's graph, plus the journal
// directory ("" when the run does not journal).
func (cfg config) workerArgs(journalDir string) []string {
	return []string{
		"-case", cfg.useCase,
		"-n", strconv.Itoa(cfg.n),
		"-blocks", strconv.Itoa(cfg.blocks),
		"-ranks", strconv.Itoa(cfg.ranks),
		"-wire-tier", cfg.tierName,
		"-journal", journalDir,
	}
}

// localInputs is the part of the external inputs the map places on rank.
func localInputs(initial map[core.TaskId][]core.Payload, tmap core.TaskMap, rank int) map[core.TaskId][]core.Payload {
	local := make(map[core.TaskId][]core.Payload)
	for id, ps := range initial {
		if tmap.Shard(id) == core.ShardId(rank) {
			local[id] = ps
		}
	}
	return local
}

// runWireWorker is one rank of a multi-process run: it connects the TCP
// fabric, executes its sub-graph and prints one digest line per local sink
// payload for the parent to verify. With -journal the rank journals its
// lineage ledger there (and resumes from whatever the directory already
// holds); -kill-all-after >= 0 arms a deterministic self-kill after that
// many inter-rank sends, seeding a resumable crash.
func runWireWorker(cfg config, stdout io.Writer) (err error) {
	rank := cfg.wireRank
	defer func() {
		if err != nil {
			err = fmt.Errorf("rank %d: %w", rank, err)
		}
	}()
	c, err := cfg.build()
	if err != nil {
		return err
	}
	ctrl := mpi.New(mpi.WithJournal(cfg.journal)) // "" journals nothing
	tmap := c.Map(cfg.ranks)
	if err := ctrl.Initialize(c.Graph, tmap); err != nil {
		return err
	}
	if err := c.Register(ctrl); err != nil {
		return err
	}
	fab, err := wire.Connect(wire.Options{
		Rank: rank, Ranks: cfg.ranks, Addr: cfg.wireAddr, Tier: cfg.tier, Fingerprint: ctrl.Fingerprint(),
	})
	if err != nil {
		return err
	}
	var tr fabric.Transport = fab
	if cfg.killAll >= 0 {
		tr = faultinject.Wrap(fab, rank, faultinject.Plan{
			KillRank:  rank,
			KillAfter: cfg.killAll,
			Delay:     time.Millisecond,
		})
	}
	start := time.Now()
	out, err := ctrl.RunRank(rank, tr, localInputs(c.Initial, tmap, rank))
	if cfg.journal != "" {
		// Journal accounting flows to the parent whether the run survived or
		// crashed — the crash line is what a later -resume is measured by.
		js := ctrl.JournalStats()
		fmt.Fprintf(stdout, "BFWIRE journal rank=%d restored=%d replayed=%d executed=%d store_errors=%d\n",
			rank, js.Restored, js.Replayed, js.Executed, js.StoreErrors)
	}
	if err != nil {
		return err
	}
	if err := fab.Shutdown(30 * time.Second); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := printSinks(stdout, out); err != nil {
		return err
	}
	st := fab.Snapshot()
	fmt.Fprintf(stdout, "BFWIRE done rank=%d elapsed=%s sent=%d bytes=%d\n",
		rank, time.Since(start).Round(time.Microsecond), st.Messages, st.Bytes)
	return nil
}

// runWireParent launches one worker process per rank, aggregates their exit
// status and timing, and verifies the combined sink digests against an
// in-parent serial reference run.
//
// -journal makes every worker journal under it. -kill-all-after >= 0 arms
// every worker's self-kill after that many inter-rank sends — the parent
// then expects the job to crash (that is the seeded state a later -resume
// recovers from) and succeeds only if it did. -resume is a restart: digests
// must match AND the journals must have carried progress (something
// restored, every restored task replayed, replays + executions covering
// the whole graph).
func runWireParent(cfg config, stdout io.Writer) error {
	journalDir, resume, killAll := cfg.journal, cfg.resume != "", cfg.killAll
	if resume {
		journalDir, killAll = cfg.resume, -1
	}
	c, err := cfg.build()
	if err != nil {
		return err
	}
	want, err := referenceDigests(c)
	if err != nil {
		return err
	}
	addr, err := reserveLoopbackAddr()
	if err != nil {
		return err
	}

	var workers fleet
	defer workers.kill()
	start := time.Now()
	for r := 0; r < cfg.ranks; r++ {
		args := append(cfg.workerArgs(journalDir), "-wire-rank", strconv.Itoa(r), "-wire-addr", addr,
			"-kill-all-after", strconv.Itoa(killAll))
		if err := workers.fork(args...); err != nil {
			return err
		}
	}
	t := workers.wait()
	elapsed := time.Since(start).Round(time.Millisecond)

	var restored, replayed, executed int
	for _, line := range t.records {
		fmt.Fprintln(stdout, line)
		var rk, re, rp, ex, se int
		if _, err := fmt.Sscanf(line, "BFWIRE journal rank=%d restored=%d replayed=%d executed=%d store_errors=%d",
			&rk, &re, &rp, &ex, &se); err == nil {
			restored += re
			replayed += rp
			executed += ex
		}
	}

	tasks := c.Graph.Size()
	if killAll >= 0 {
		// Seed phase of a checkpoint/restart exercise: the job must have
		// crashed with journaled progress for -resume to have work to do.
		fmt.Fprintf(stdout, "wire-journal seed %-10s %d tasks over %d processes: %v  crashed_ranks=%d/%d journaled_executions=%d -> resume with -resume %s\n",
			cfg.useCase, tasks, cfg.ranks, elapsed, t.failed, cfg.ranks, executed, journalDir)
		if t.failed == 0 || executed == 0 {
			return fmt.Errorf("seed run did not crash with journaled progress")
		}
		return nil
	}

	matches, ok := judge(want, t.sinks, t.failed)
	if resume {
		// A restart must prove it resumed rather than recomputed: journals
		// carried completed tasks in, every one of them replayed, and
		// replays + executions account for exactly the whole graph.
		ok = ok && restored > 0 && replayed == restored && replayed+executed == tasks
		fmt.Fprintf(stdout, "wire-resume %-10s %d tasks over %d processes: %v  sinks=%d/%d restored=%d replayed=%d executed=%d match-serial=%v\n",
			cfg.useCase, tasks, cfg.ranks, elapsed, matches, len(want), restored, replayed, executed, ok)
	} else {
		fmt.Fprintf(stdout, "wire %-10s %d tasks over %d processes: %v  sinks=%d/%d match-serial=%v\n",
			cfg.useCase, tasks, cfg.ranks, elapsed, matches, len(want), ok)
	}
	return verdict(ok)
}
