package register_test

import (
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/register"
	"github.com/babelflow/babelflow-go/internal/serve"
)

// TestSerialDigestsPinned pins the sink digest of the serial iterative
// registration run, so a search change that moves a single score bit fails
// here. The 6×6 grid of 24³ tiles (overlap 0.2, jitter 2) is the
// benchmark's shape; it converges at iteration 4, whose window is clamped
// at 2·Jitter = 4 and adds nothing. The jitter-3 shape grows its window to
// the clamp at r = 6 (iteration 5) and converges on the iteration after,
// which again adds nothing.
func TestSerialDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		grid, jitter int
		seed         uint64
		converged    int
		want         string
	}{
		{6, 2, 5, 4, "ea286fbab21fdc7b31074729afa1209f64a7dda0c811ae599d34fb3ace97ca99"},
		{6, 2, 2026, 4, "aa6eb06983a16d9ef8d29c7c31cd710faefa75c688a703964fef579f064068fa"},
		{4, 3, 1, 6, "89e763a764e3123890dcf100b543260f39e9965388bed1460d51584b23a73aff"},
	} {
		cfg := register.Config{GridW: c.grid, GridH: c.grid, Tile: 24, Overlap: 0.2, Jitter: c.jitter}
		tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, c.seed)
		ig, err := cfg.Iterative(8)
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewSerial()
		if err := s.Initialize(ig, nil); err != nil {
			t.Fatal(err)
		}
		if err := cfg.RegisterIter(s, ig); err != nil {
			t.Fatal(err)
		}
		initial, err := cfg.IterInitial(tiles)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(initial)
		if err != nil {
			t.Fatal(err)
		}
		if iter, _, err := ig.Final(out); err != nil || iter != c.converged {
			t.Errorf("%dx%d/jitter %d/seed %d: converged at iteration %d (%v), want %d", c.grid, c.grid, c.jitter, c.seed, iter, err, c.converged)
		}
		if got, err := serve.SinkDigest(out); err != nil || got != c.want {
			t.Errorf("%dx%d/jitter %d/seed %d: digest %s (%v), want %s", c.grid, c.grid, c.jitter, c.seed, got, err, c.want)
		}
	}
}
