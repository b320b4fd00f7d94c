package conformance

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// countingCallback wraps cb with an execution counter so resume tests can
// prove which tasks actually re-ran.
func countingCallback(cb core.Callback, execs *atomic.Int64) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		execs.Add(1)
		return cb(in, id)
	}
}

// journaledWireRun drives one journaled multi-process-shaped run: one
// controller per rank (as separate OS processes would have), each RunRank
// on its own loopback fabric at the given transport tier, optionally
// wrapped with fault injection. journalOpts extends the per-rank controller
// configuration (journal sync policy, commit window). It returns the merged
// sink results, the per-rank errors, and the summed journal stats.
func journaledWireRun(t *testing.T, g core.TaskGraph, m core.TaskMap, cb core.Callback, initial map[core.TaskId][]core.Payload, dir string, tier wire.Tier, journalOpts []mpi.Option, inject func(rank int, tr fabric.Transport) fabric.Transport) (map[core.TaskId][]core.Payload, []error, mpi.JournalStats) {
	t.Helper()
	return journaledWireRunReg(t, g, m, registerAll(g, cb), initial, dir, tier, journalOpts, inject)
}

// journaledWireRunReg is journaledWireRun with an explicit
// callback-registration function instead of one callback for every id.
func journaledWireRunReg(t *testing.T, g core.TaskGraph, m core.TaskMap, reg func(core.CallbackRegistrar) error, initial map[core.TaskId][]core.Payload, dir string, tier wire.Tier, journalOpts []mpi.Option, inject func(rank int, tr fabric.Transport) fabric.Transport) (map[core.TaskId][]core.Payload, []error, mpi.JournalStats) {
	t.Helper()
	ranks := m.ShardCount()
	ctrls := make([]*mpi.Controller, ranks)
	for r := range ctrls {
		ctrls[r] = mpi.New(append([]mpi.Option{mpi.WithJournal(dir)}, journalOpts...)...)
		if err := ctrls[r].Initialize(g, m); err != nil {
			t.Fatal(err)
		}
		if err := reg(ctrls[r]); err != nil {
			t.Fatal(err)
		}
	}
	fabrics := connectWireMesh(t, ranks, ctrls[0].Fingerprint(), wire.Options{
		Tier:              tier,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
	})
	parts := partitionInitial(m, initial)

	results := make([]map[core.TaskId][]core.Payload, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var tr fabric.Transport = fabrics[r]
			if inject != nil {
				tr = inject(r, tr)
			}
			results[r], errs[r] = ctrls[r].RunRank(r, tr, parts[r])
			if errs[r] == nil {
				errs[r] = fabrics[r].Shutdown(30 * time.Second)
			}
		}(r)
	}
	wg.Wait()

	var js mpi.JournalStats
	for _, c := range ctrls {
		s := c.JournalStats()
		js.Restored += s.Restored
		js.Replayed += s.Replayed
		js.Executed += s.Executed
		js.StoreErrors += s.StoreErrors
	}
	merged := make(map[core.TaskId][]core.Payload)
	for _, res := range results {
		for id, ps := range res {
			merged[id] = append(merged[id], ps...)
		}
	}
	return merged, errs, js
}

// TestResumeAfterKillingAllRanks is the checkpoint/restart acceptance
// sweep: every figure workload runs journaled on 4 ranks over loopback
// sockets at each transport tier, EVERY rank — including rank 0 — is killed
// after its N-th inter-rank send, and a second run over the same journal
// directory must produce sinks byte-identical to the serial reference while
// re-executing only the tasks the journals did not retain. The
// unix/group-commit configuration additionally crashes every rank with its
// commit window still open (interval and record threshold too large to ever
// fire mid-run), proving the watermark semantics survive an unclean death.
func TestResumeAfterKillingAllRanks(t *testing.T) {
	mk := func(g core.TaskGraph, err error) core.TaskGraph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := map[string]core.TaskGraph{
		"reduction":  mk(graphAsTaskGraph(graphs.NewReduction(8, 2))),
		"binaryswap": mk(graphAsTaskGraph(graphs.NewBinarySwap(8))),
		"kwaymerge":  mk(graphAsTaskGraph(graphs.NewKWayMerge(8, 2))),
	}
	configs := []struct {
		name string
		tier wire.Tier
		opts []mpi.Option
	}{
		{"tcp", wire.TierTCP, nil},
		{"unix", wire.TierUnix, nil},
		{"shm", wire.TierShm, nil},
		{"unix_groupcommit", wire.TierUnix, []mpi.Option{mpi.WithJournalGroupCommit(time.Hour, 1<<20)}},
	}
	const ranks = 4
	for name, g := range cases {
		for _, cfg := range configs {
			for _, killAfter := range []int{0, 2} {
				name, g, cfg, killAfter := name, g, cfg, killAfter
				t.Run(fmt.Sprintf("%s/%s/killall_after%d", name, cfg.name, killAfter), func(t *testing.T) {
					t.Parallel()
					cb := mixCallback(g)
					initial := externalInputsFor(g)
					want := serialReference(t, g, cb, initial)
					m := core.NewGraphMap(ranks, g)
					dir := t.TempDir()

					// Seed run: every rank is its own victim, so the whole job
					// dies mid-flight — the all-processes-crashed scenario.
					var seedExecs atomic.Int64
					_, errs, _ := journaledWireRun(t, g, m, countingCallback(cb, &seedExecs), initial, dir, cfg.tier, cfg.opts,
						func(rank int, tr fabric.Transport) fabric.Transport {
							return faultinject.Wrap(tr, rank, faultinject.Plan{
								KillRank:  rank,
								KillAfter: killAfter,
								Delay:     time.Millisecond,
							})
						})
					failed := 0
					for _, err := range errs {
						if err != nil {
							failed++
						}
					}
					if failed == 0 {
						t.Fatal("kill-all seed run completed without a single failure")
					}

					// Resume: a fresh mesh and fresh controllers over the same
					// journal directory.
					var resExecs atomic.Int64
					got, errs, js := journaledWireRun(t, g, m, countingCallback(cb, &resExecs), initial, dir, cfg.tier, cfg.opts, nil)
					for r, err := range errs {
						if err != nil {
							t.Fatalf("resume rank %d: %v", r, err)
						}
					}
					assertSameSinks(t, want, got)
					if js.Restored == 0 {
						t.Error("resume restored nothing: seed run journaled no progress")
					}
					if js.Replayed != js.Restored {
						t.Errorf("replayed %d tasks, restored %d — every restored task must replay", js.Replayed, js.Restored)
					}
					wantExec := g.Size() - js.Restored
					if int(resExecs.Load()) != wantExec || js.Executed != wantExec {
						t.Errorf("resume executed %d callbacks (stats %d), want exactly the %d un-journaled tasks",
							resExecs.Load(), js.Executed, wantExec)
					}
					t.Logf("seed executed=%d failed_ranks=%d; resume restored=%d replayed=%d executed=%d",
						seedExecs.Load(), failed, js.Restored, js.Replayed, js.Executed)
				})
			}
		}
	}
}

// TestCorruptFrameTriggersRecovery flips one payload bit in transit during
// the first epoch of a fault-tolerant run, once per transport tier: the
// receiver must classify the corrupt frame as a lost peer on TCP, unix and
// shm alike (the CRC sits in the frame, not the transport), and the
// recovery epoch must still deliver sinks byte-identical to serial. The
// socket tiers corrupt the byte stream under the framing layer; the shm
// tier flips a CRC bit in the mapped ring, the torn-ring analogue.
func TestCorruptFrameTriggersRecovery(t *testing.T) {
	for _, tc := range conformanceTiers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			corruptFrameRecovery(t, tc.tier)
		})
	}
}

func corruptFrameRecovery(t *testing.T, tier wire.Tier) {
	g, err := graphs.NewReduction(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb := mixCallback(g)
	initial := externalInputsFor(g)
	want := serialReference(t, g, cb, initial)

	m := core.NewGraphMap(4, g)
	ctrl := mpi.New(mpi.WithRetry(core.RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 5 * time.Millisecond,
	}))
	if err := ctrl.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	for _, cid := range g.Callbacks() {
		if err := ctrl.RegisterCallback(cid, cb); err != nil {
			t.Fatal(err)
		}
	}
	fp := ctrl.Fingerprint()
	connect := func(epoch, ranks int) ([]fabric.Transport, error) {
		opt := wire.Options{
			Fingerprint:       fp,
			Epoch:             epoch,
			Tier:              tier,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  500 * time.Millisecond,
		}
		if epoch == 1 && tier != wire.TierShm {
			// Corrupt the first payload byte of the first data frame rank 1
			// sends to rank 0 (writes smaller than a one-byte data frame are
			// control traffic).
			opt.WrapConn = faultinject.CorruptNthWrite(1, 0, 1, wire.DataFrameOverhead+1, wire.DataFrameOverhead)
		}
		fabs, err := wire.Mesh(ranks, opt)
		if err != nil {
			return nil, err
		}
		if epoch == 1 && tier == wire.TierShm {
			// Ring frames never cross a conn, so WrapConn cannot reach them:
			// flip a header CRC bit on the first data frame rank 1 pushes
			// into its ring to rank 0 instead.
			if !fabs[1].CorruptNextShmFrame(0) {
				for _, f := range fabs {
					f.Kill()
				}
				return nil, fmt.Errorf("no shm link from rank 1 to rank 0 to corrupt")
			}
		}
		trs := make([]fabric.Transport, len(fabs))
		for i, f := range fabs {
			trs[i] = f
		}
		return trs, nil
	}

	got, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
		Connect: connect,
		Initial: initial,
	})
	if err != nil {
		t.Fatalf("RunElastic: %v (report %+v)", err, rep)
	}
	assertSameSinks(t, want, got)
	if rep.Epochs < 2 {
		t.Errorf("corrupt frame did not force a recovery epoch (epochs=%d)", rep.Epochs)
	}
	t.Logf("epochs=%d lost=%v replayed=%d executed=%d", rep.Epochs, rep.LostShards, rep.Replayed, rep.Executed)
}

// resumeDamagedJournal journals a full in-process run (seedOpts extends the
// seed controller's journal configuration), damages rank 0's first journal
// segment with damage, then resumes with a fresh controller: the sinks must
// match and only the tasks whose records were lost may re-execute.
func resumeDamagedJournal(t *testing.T, damage func(segment string) error, seedOpts ...mpi.Option) {
	g, err := graphs.NewReduction(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb := mixCallback(g)
	initial := externalInputsFor(g)
	want := serialReference(t, g, cb, initial)
	m := core.NewGraphMap(4, g)
	dir := t.TempDir()

	run := func(execs *atomic.Int64, opts ...mpi.Option) (map[core.TaskId][]core.Payload, mpi.JournalStats) {
		t.Helper()
		c := mpi.New(append([]mpi.Option{mpi.WithJournal(dir)}, opts...)...)
		if err := c.Initialize(g, m); err != nil {
			t.Fatal(err)
		}
		for _, cid := range g.Callbacks() {
			if err := c.RegisterCallback(cid, countingCallback(cb, execs)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := c.Run(cloneInputs(t, initial))
		if err != nil {
			t.Fatal(err)
		}
		return got, c.JournalStats()
	}

	var execs atomic.Int64
	run(&execs, seedOpts...)
	if int(execs.Load()) != g.Size() {
		t.Fatalf("seed run executed %d callbacks, want %d", execs.Load(), g.Size())
	}

	segs, err := filepath.Glob(filepath.Join(dir, "rank-0", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("rank 0 journal segments missing: %v (%v)", segs, err)
	}
	if err := damage(segs[0]); err != nil {
		t.Fatal(err)
	}

	execs.Store(0)
	got, js := run(&execs)
	assertSameSinks(t, want, got)
	reexecuted := int(execs.Load())
	if reexecuted == 0 {
		t.Fatal("journal damage destroyed no record — the test exercised nothing")
	}
	if reexecuted >= g.Size() {
		t.Fatalf("resume re-executed all %d tasks: surviving records were not replayed", reexecuted)
	}
	if js.Replayed+js.Executed != g.Size() {
		t.Errorf("replayed %d + executed %d != %d tasks", js.Replayed, js.Executed, g.Size())
	}
	t.Logf("damage cost %d re-executions, %d replays", reexecuted, js.Replayed)
}

// cloneInputs deep-copies external inputs so successive runs in one test
// cannot alias each other's consumed payloads.
func cloneInputs(t *testing.T, in map[core.TaskId][]core.Payload) map[core.TaskId][]core.Payload {
	t.Helper()
	out := make(map[core.TaskId][]core.Payload, len(in))
	for id, ps := range in {
		cp := make([]core.Payload, len(ps))
		for i, p := range ps {
			c, err := p.CloneForWire()
			if err != nil {
				t.Fatal(err)
			}
			cp[i] = c
		}
		out[id] = cp
	}
	return out
}

// TestResumeWithTornJournalTail resumes over a journal whose last record
// was torn mid-write by a crash.
func TestResumeWithTornJournalTail(t *testing.T) {
	resumeDamagedJournal(t, func(seg string) error {
		return faultinject.TruncateTail(seg, 5)
	})
}

// TestResumeWithCorruptJournalRecord resumes over a journal with a bit
// flipped in the middle of a segment — at-rest corruption inside a record.
func TestResumeWithCorruptJournalRecord(t *testing.T) {
	resumeDamagedJournal(t, func(seg string) error {
		info, err := os.Stat(seg)
		if err != nil {
			return err
		}
		return faultinject.FlipBit(seg, info.Size()/2, 3)
	})
}

// TestResumeGroupCommitCrashMidWindow seeds the journal under group commit
// with a commit window too large to ever close mid-run, then tears the tail
// off rank 0's first segment — the on-disk image of a host that crashed
// before the window's fsync landed. The resume must replay every surviving
// record, re-execute only the torn ones, and still match serial
// byte-for-byte.
func TestResumeGroupCommitCrashMidWindow(t *testing.T) {
	resumeDamagedJournal(t, func(seg string) error {
		return faultinject.TruncateTail(seg, 5)
	}, mpi.WithJournalGroupCommit(time.Hour, 1<<20))
}
