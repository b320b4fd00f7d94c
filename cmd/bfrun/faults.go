// Fault-tolerant execution: -faults runs the use cases on the MPI
// controller over in-process loopback TCP meshes with a deterministic
// peer kill injected, recovers via lineage-ledger replay, and verifies the
// recovered sink digests byte-for-byte against the serial reference.
//
//	bfrun -faults                          # all three use cases
//	bfrun -faults -case render -kill-rank 2 -kill-after 1
package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// runFaults executes the selected use case (all three when -case was not
// passed) with one peer killed on the first epoch and reports recovery
// statistics. Fails if any recovered run diverges from serial.
func runFaults(cfg config, stdout io.Writer) error {
	cases := []string{"mergetree", "render", "register"}
	if cfg.caseSet {
		cases = []string{cfg.useCase}
	}
	allMatch := true
	for _, uc := range cases {
		cfg.useCase = uc
		ok, err := runFaultCase(cfg, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", uc, err)
		}
		allMatch = allMatch && ok
	}
	return verdict(allMatch)
}

func runFaultCase(cfg config, stdout io.Writer) (bool, error) {
	ref, err := cfg.build()
	if err != nil {
		return false, err
	}
	want, err := referenceDigests(ref)
	if err != nil {
		return false, err
	}
	// The reference run consumed its inputs (tasks own their inputs), so the
	// recovering run gets a fresh build.
	c, err := cfg.build()
	if err != nil {
		return false, err
	}
	ctrl := mpi.New(mpi.WithRetry(core.RetryPolicy{
		MaxAttempts: cfg.ranks,
		BaseBackoff: 10 * time.Millisecond,
	}))
	if err := ctrl.Initialize(c.Graph, c.Map(cfg.ranks)); err != nil {
		return false, err
	}
	if err := c.Register(ctrl); err != nil {
		return false, err
	}
	fp := ctrl.Fingerprint()
	connect := func(epoch, nranks int) ([]fabric.Transport, error) {
		fabs, err := wire.Mesh(nranks, wire.Options{
			Fingerprint:       fp,
			Epoch:             epoch,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  time.Second,
		})
		if err != nil {
			return nil, err
		}
		trs := make([]fabric.Transport, len(fabs))
		for i, f := range fabs {
			trs[i] = f
		}
		return trs, nil
	}
	inject := func(epoch, rank int, tr fabric.Transport) fabric.Transport {
		if epoch != 1 {
			return tr // retry epochs run clean, like a restarted process
		}
		return faultinject.Wrap(tr, rank, faultinject.Plan{
			KillRank:  cfg.killRank,
			KillAfter: cfg.killAfter,
			Delay:     time.Millisecond,
		})
	}

	start := time.Now()
	out, rep, err := ctrl.RunRecover(context.Background(), mpi.RecoverOptions{
		Connect: connect,
		Inject:  inject,
		Initial: c.Initial,
	})
	elapsed := time.Since(start)
	if err != nil {
		return false, fmt.Errorf("recovery failed: %w (report %+v)", err, rep)
	}
	got, err := digestSet(out)
	if err != nil {
		return false, err
	}
	matches, ok := judge(want, got, 0)
	status := "MATCH"
	if !ok {
		status = "MISMATCH"
	}
	fmt.Fprintf(stdout, "faults %-10s %v  epochs=%d lost=%v replayed=%d executed=%d recovery=%v sinks=%d/%d %s\n",
		cfg.useCase, elapsed.Round(time.Millisecond), rep.Epochs, rep.LostShards,
		rep.Replayed, rep.Executed, rep.RecoveryTime.Round(time.Millisecond),
		matches, len(want), status)
	return ok, nil
}
