package render_test

import (
	"context"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/render"
	"github.com/babelflow/babelflow-go/internal/serve"
)

// TestFaultTolerantRenderMatchesPinnedDigest runs the 64³ reduction of
// TestSerialDigestsPinned fault-tolerantly on 4 ranks and kills rank 1 after
// its first inter-rank message. Every attempt starts from clones of the
// leaf inputs' wire form, so the views InitialInputs hands out reach the
// leaves as extracted blocks; the recovered frame must keep the pinned
// digest.
func TestFaultTolerantRenderMatchesPinnedDigest(t *testing.T) {
	const n, pinned = 64, "c4cac6130be9701cc661a0fde57eb6a08bb732e30cbd310d2d73c2569e30f52c"
	field := data.SyntheticHCCI(n, n, n, 6, 7)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := render.Config{
		Decomp: decomp,
		Camera: render.Camera{Width: n, Height: n},
		TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
	}
	g, err := graphs.NewReduction(decomp.Blocks(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	c := mpi.New(mpi.WithRetry(core.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}))
	if err := c.Initialize(g, core.NewModuloMap(ranks, g.Size())); err != nil {
		t.Fatal(err)
	}
	if err := cfg.RegisterReduction(c, g); err != nil {
		t.Fatal(err)
	}
	initial, err := cfg.InitialInputs(field, g.LeafIds())
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := c.RunElastic(context.Background(), mpi.ElasticOptions{
		Connect: func(_, ranks int) ([]fabric.Transport, error) {
			fab := fabric.New(ranks)
			trs := make([]fabric.Transport, ranks)
			for i := range trs {
				trs[i] = fab
			}
			return trs, nil
		},
		Inject: func(epoch, rank int, tr fabric.Transport) fabric.Transport {
			if epoch > 1 {
				return tr
			}
			return faultinject.Wrap(tr, rank, faultinject.Plan{KillRank: 1, KillAfter: 1})
		},
		Initial: initial,
	})
	if err != nil {
		t.Fatalf("%v (report %+v)", err, rep)
	}
	if rep.Epochs != 2 || len(rep.LostShards) != 1 || rep.LostShards[0] != 1 {
		t.Errorf("one injected kill of rank 1: %+v", rep)
	}
	if got, err := serve.SinkDigest(out); err != nil || got != pinned {
		t.Errorf("digest %s (%v), want %s", got, err, pinned)
	}
}
