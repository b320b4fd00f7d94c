package mergetree_test

import (
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/serve"
)

// TestSerialDigestsPinned pins the sink digest of the serial merge-tree run
// on two benchmark-sized shapes, so a kernel change that moves a single
// label byte fails here: SyntheticHCCI(n, n, n, 8, seed), 2×2×(blocks/4)
// blocks, a 2-way graph and threshold 0.3.
func TestSerialDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		n, blocks int
		seed      uint64
		want      string
	}{
		{64, 8, 7, "d3a1ad7e146edfa7e10269e2d26fae14719fba38c4d49cc566ed1f317f66951d"},
		{128, 32, 2026, "04fdb3932c6cd9599cd1e92d2ff2b8f7d40c5f083fd2a406178266f866705d54"},
	} {
		field := data.SyntheticHCCI(c.n, c.n, c.n, 8, c.seed)
		decomp, err := data.NewDecomposition(c.n, c.n, c.n, 2, 2, c.blocks/4)
		if err != nil {
			t.Fatal(err)
		}
		g, err := mergetree.NewGraph(c.blocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
		s := core.NewSerial()
		s.Initialize(g, nil)
		if err := cfg.Register(s, g); err != nil {
			t.Fatal(err)
		}
		initial, err := cfg.InitialInputs(field, g)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(initial)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := serve.SinkDigest(out); err != nil || got != c.want {
			t.Errorf("%d³/%d blocks/seed %d: digest %s (%v), want %s", c.n, c.blocks, c.seed, got, err, c.want)
		}
	}
}
