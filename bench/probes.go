package main

import (
	"fmt"
	"os"
	"time"

	"github.com/babelflow/babelflow-go/internal/charm"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/journal"
	"github.com/babelflow/babelflow-go/internal/legion"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// Probes are diagnostics of single layers. None of them is an end-to-end
// row; each explains one (README.md, "How the metrics interact").

// runOn executes the dataflow once on an arbitrary controller and returns
// the Run time and the sink digest.
func runOn(c core.Controller, build func() (*dataflow, error)) (time.Duration, string, error) {
	df, err := build()
	if err != nil {
		return 0, "", err
	}
	if err := c.Initialize(df.graph, df.tmap); err != nil {
		return 0, "", err
	}
	if err := df.register(c); err != nil {
		return 0, "", err
	}
	initial, err := df.initial()
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	out, err := c.Run(initial)
	d := time.Since(start)
	if err != nil {
		return 0, "", err
	}
	digest, err := digestAndRelease(out)
	return d, digest, err
}

// probeControllers runs the same inputs on the other runtime controllers:
// it keeps the paper's portability claim (same sinks, comparable time)
// visible when a later change unifies their step kernels. Up to five runs
// each, fewer when the budget is short.
func probeControllers(res *result, build func() (*dataflow, error), want string, budget time.Duration) error {
	controllers := []struct {
		name string
		make func() core.Controller
	}{
		{"charm", func() core.Controller { return charm.New(charm.Options{PEs: workers, LBPeriod: 8}) }},
		{"legion-spmd", func() core.Controller { return legion.NewSPMD(legion.Options{}) }},
		{"legion-il", func() core.Controller { return legion.NewIndexLaunch(legion.Options{Workers: workers}) }},
	}
	for _, c := range controllers {
		deadline := time.Now().Add(budget / time.Duration(len(controllers)))
		for i := 0; i < 5 && (i == 0 || time.Now().Before(deadline)); i++ {
			d, digest, err := runOn(c.make(), build)
			if err != nil {
				return fmt.Errorf("controller %s: %w", c.name, err)
			}
			res.attempted++
			if digest != want {
				res.failed++
			}
			res.add("controller."+c.name+".run_s", "s", d.Seconds())
		}
	}
	return nil
}

// probeJournal re-runs the inputs with a group-commit journal under a
// temporary directory under the output directory, and times raw ledger appends.
// It is a layer diagnostic, not an end-to-end row: per-record fsync on a
// shared disk does not repeat within a tenth.
func probeJournal(res *result, build func() (*dataflow, error), want string, plainRunS float64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctrl := mpi.New(mpi.WithWorkers(workers), mpi.WithJournal(dir+"/run"),
		mpi.WithJournalGroupCommit(2*time.Millisecond, 64))
	d, digest, err := runOn(ctrl, build)
	if err != nil {
		return fmt.Errorf("journaled run: %w", err)
	}
	res.attempted++
	if digest != want {
		res.failed++
	}
	res.set("journal.overhead_x", "x", d.Seconds()/plainRunS)

	store, err := journal.OpenLedgerStore(dir+"/append", journal.Options{Sync: journal.SyncGroupCommit})
	if err != nil {
		return err
	}
	payload := [][]byte{make([]byte, 4<<10)}
	for i := 0; i < 256; i++ {
		start := time.Now()
		if err := store.Append(core.TaskId(i), payload); err != nil {
			store.Close()
			return err
		}
		res.add("journal.append_us", "us", time.Since(start).Seconds()*1e6)
	}
	return store.Close()
}

// probeTiers measures each wire tier on a fresh two-rank mesh: round trip
// of a 64 B message and one-way streaming of 1 MiB messages. These explain
// wire.send_us / wire.mb_per_s of the wire workloads and feed the
// tcp-vs-unix-vs-shm pruning decision.
func probeTiers(res *result) error {
	tiers := []struct {
		name string
		tier wire.Tier
	}{{"tcp", wire.TierTCP}, {"unix", wire.TierUnix}, {"shm", wire.TierShm}}
	for _, t := range tiers {
		mesh, err := wire.Mesh(ranks, wire.Options{Tier: t.tier})
		if err != nil {
			return fmt.Errorf("tier %s: %w", t.name, err)
		}
		rtt, bw, err := pingPong(mesh[0], mesh[1])
		if e := shutdown(mesh); e != nil && err == nil {
			err = e
		}
		if err != nil {
			return fmt.Errorf("tier %s: %w", t.name, err)
		}
		res.set("wire."+t.name+".rtt_us", "us", rtt)
		res.set("wire."+t.name+".bw_mb_s", "MB/s", bw)
	}
	return nil
}

// pingPong returns the median round trip of a 64 B message in microseconds
// and the streaming rate of 1 MiB messages in MB/s, rank 0 to rank 1.
func pingPong(a, b fabric.Transport) (rttUs, mbPerS float64, err error) {
	const (
		pings  = 2000
		chunks = 64
		chunk  = 1 << 20
	)
	fail := make(chan error, 1)
	go func() { // rank 1: echo the pings, then sink the stream and acknowledge
		for i := 0; i < pings; i++ {
			m, ok := b.Recv(1)
			if !ok {
				fail <- fmt.Errorf("echo: transport closed")
				return
			}
			if err := b.Send(fabric.Message{From: 1, To: 0, Payload: m.Payload}); err != nil {
				fail <- err
				return
			}
		}
		for i := 0; i < chunks; i++ {
			m, ok := b.Recv(1)
			if !ok {
				fail <- fmt.Errorf("sink: transport closed")
				return
			}
			core.ReleaseBuffer(m.Payload.Data)
		}
		fail <- b.Send(fabric.Message{From: 1, To: 0, Payload: core.Buffer([]byte{1})})
	}()

	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		start := time.Now()
		if err := a.Send(fabric.Message{From: 0, To: 1, Payload: core.Buffer(make([]byte, 64))}); err != nil {
			return 0, 0, err
		}
		if _, ok := a.Recv(0); !ok {
			return 0, 0, fmt.Errorf("ping %d: transport closed", i)
		}
		rtts = append(rtts, time.Since(start).Seconds()*1e6)
	}
	start := time.Now()
	for i := 0; i < chunks; i++ {
		if err := a.Send(fabric.Message{From: 0, To: 1, Payload: core.Buffer(make([]byte, chunk))}); err != nil {
			return 0, 0, err
		}
	}
	if _, ok := a.Recv(0); !ok {
		return 0, 0, fmt.Errorf("stream: transport closed")
	}
	elapsed := time.Since(start).Seconds()
	if err := <-fail; err != nil {
		return 0, 0, err
	}
	return median(rtts), chunks * chunk / 1e6 / elapsed, nil
}
