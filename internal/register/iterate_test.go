package register

import (
	"bytes"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
)

func iterSetup(t *testing.T) (Config, []data.BrainTile, *core.IterativeGraph) {
	t.Helper()
	cfg := Config{GridW: 3, GridH: 2, Tile: 16, Overlap: 0.25, Jitter: 1}
	tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 20260707)
	ig, err := cfg.Iterative(6)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, tiles, ig
}

func runIterRegistration(t *testing.T, c core.Controller, cfg Config, ig *core.IterativeGraph, tiles []data.BrainTile) (int, []Estimate, []byte) {
	t.Helper()
	if err := cfg.RegisterIter(c, ig); err != nil {
		t.Fatal(err)
	}
	initial, err := cfg.IterInitial(tiles)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(initial)
	if err != nil {
		t.Fatal(err)
	}
	iter, sinks, err := ig.Final(out)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := cfg.IterEstimates(sinks)
	if err != nil {
		t.Fatal(err)
	}
	return iter, ests, sinks[cfg.IterRootId()][0].Data
}

// TestIterativeRegistrationConverges runs the refinement loop serially: it
// must converge before the bound, recover the ground-truth offsets, and
// solve to the true tile positions — the same answer the static
// single-pass pipeline gives.
func TestIterativeRegistrationConverges(t *testing.T) {
	cfg, tiles, ig := iterSetup(t)
	s := core.NewSerial()
	if err := s.Initialize(ig, nil); err != nil {
		t.Fatal(err)
	}
	iter, ests, _ := runIterRegistration(t, s, cfg, ig, tiles)
	if iter <= 0 || iter >= ig.MaxIter()-1 {
		t.Fatalf("converged at iteration %d, want inside (0, %d)", iter, ig.MaxIter()-1)
	}

	tileAt := func(x, y int) data.BrainTile { return tiles[y*cfg.GridW+x] }
	for _, e := range ests {
		if e.HasEast {
			n, o := tileAt(e.X+1, e.Y), tileAt(e.X, e.Y)
			if wantDx, wantDy := n.TrueX-o.TrueX, n.TrueY-o.TrueY; e.EastDx != wantDx || e.EastDy != wantDy {
				t.Errorf("cell (%d,%d) East estimate (%d,%d), truth (%d,%d)", e.X, e.Y, e.EastDx, e.EastDy, wantDx, wantDy)
			}
		}
		if e.HasSouth {
			n, o := tileAt(e.X, e.Y+1), tileAt(e.X, e.Y)
			if wantDx, wantDy := n.TrueX-o.TrueX, n.TrueY-o.TrueY; e.SouthDx != wantDx || e.SouthDy != wantDy {
				t.Errorf("cell (%d,%d) South estimate (%d,%d), truth (%d,%d)", e.X, e.Y, e.SouthDx, e.SouthDy, wantDx, wantDy)
			}
		}
	}

	pos, err := Solve(cfg.GridW, cfg.GridH, ests)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < cfg.GridH; y++ {
		for x := 0; x < cfg.GridW; x++ {
			want := Position{
				X: tileAt(x, y).TrueX - tileAt(0, 0).TrueX,
				Y: tileAt(x, y).TrueY - tileAt(0, 0).TrueY,
			}
			if pos[y][x] != want {
				t.Errorf("tile (%d,%d) solved at %+v, truth %+v", x, y, pos[y][x], want)
			}
		}
	}
}

// TestIterativeRegistrationIdenticalAcrossControllers: the converged root
// blob is byte-identical between the serial reference and a sharded MPI
// run over the iteration-stable map.
func TestIterativeRegistrationIdenticalAcrossControllers(t *testing.T) {
	cfg, tiles, ig := iterSetup(t)
	s := core.NewSerial()
	if err := s.Initialize(ig, nil); err != nil {
		t.Fatal(err)
	}
	refIter, _, refBlob := runIterRegistration(t, s, cfg, ig, tiles)

	mc := mpi.New(mpi.WithWorkers(4), mpi.WithAlwaysSerialize(true))
	if err := mc.Initialize(ig, core.NewIterativeMap(4, ig)); err != nil {
		t.Fatal(err)
	}
	mcIter, _, mcBlob := runIterRegistration(t, mc, cfg, ig,
		data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 20260707))
	if mcIter != refIter {
		t.Fatalf("mpi converged at iteration %d, serial at %d", mcIter, refIter)
	}
	if !bytes.Equal(refBlob, mcBlob) {
		t.Fatal("mpi converged blob differs from serial")
	}
}

// TestIterInitialErrors covers the seeding and decoding error paths.
func TestIterInitialErrors(t *testing.T) {
	cfg := Config{GridW: 2, GridH: 2, Tile: 8, Overlap: 0.25, Jitter: 1}
	if _, err := cfg.IterInitial(nil); err == nil {
		t.Fatal("IterInitial accepted a tile shortfall")
	}
	if _, err := cfg.IterEstimates(map[core.TaskId][]core.Payload{}); err == nil {
		t.Fatal("IterEstimates accepted missing root sinks")
	}
	if _, err := cfg.blobEstimate([]byte{1, 2, 3}, 0); err == nil {
		t.Fatal("blobEstimate accepted a short blob")
	}
	if _, err := (Config{GridW: 0, GridH: 1, Tile: 8}).Iterative(4); err == nil {
		t.Fatal("Iterative accepted an empty grid")
	}
	if _, err := (Config{GridW: 2, GridH: 2, Tile: 1}).Iterative(4); err == nil {
		t.Fatal("Iterative accepted a degenerate tile")
	}
}

// benchGrid is the regiter-shm benchmark's acquisition and its tiles.
func benchGrid() (Config, []data.BrainTile) {
	cfg := Config{GridW: 6, GridH: 6, Tile: 24, Overlap: 0.2, Jitter: 2}
	return cfg, data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 5)
}

// TestIterExtractCutsOnlyReadStrips: an extract task cuts, in iteration 0
// only, the strips its West and North neighbors correlate; toward East and
// South, and in every later iteration, its strips are empty. The tile goes
// to its own process task and along its carry every iteration.
func TestIterExtractCutsOnlyReadStrips(t *testing.T) {
	cfg, tiles := benchGrid()
	w := cfg.stripWidth()
	for i, tl := range tiles {
		dirs := cfg.neighborDirs(i%cfg.GridW, i/cfg.GridW)
		for _, k := range []int{0, 1, 4} {
			out, err := cfg.iterExtract([]core.Payload{core.Object(tl.Volume)}, core.IterId(k, core.TaskId(i)))
			if err != nil {
				t.Fatal(err)
			}
			if out[0].Object != tl.Volume || out[len(out)-1].Object != tl.Volume {
				t.Fatalf("cell %d iteration %d: tile not passed on", i, k)
			}
			for s, d := range dirs {
				p := out[1+s]
				if k > 0 || d == graphs.East || d == graphs.South {
					if !p.Empty() {
						t.Errorf("cell %d iteration %d: strip toward %v is not empty", i, k, d)
					}
					continue
				}
				f, ok := p.Object.(*data.Field)
				if !ok || f.NX*f.NY != w*cfg.Tile || f.NZ != cfg.Tile {
					t.Errorf("cell %d: strip toward %v is %v, want a %d-wide strip", i, d, p, w)
				}
			}
		}
	}
}

// TestCarriedStripsMatchFreshCuts: for every cell of the benchmark grid,
// the process task at iteration 0, and at iterations 1–4 reading the
// strips iteration 0 carried on, returns the estimate bytes of a
// whole-window search of radius min(1+k, 2·Jitter) against strips cut
// fresh from the neighbors' tiles — whether the carried strips arrive as
// objects or as their wire form — and passes them on as decoded objects.
func TestCarriedStripsMatchFreshCuts(t *testing.T) {
	cfg, tiles := benchGrid()
	n, w := cfg.cells(), cfg.stripWidth()
	for cell := 0; cell < n; cell++ {
		x, y := cell%cfg.GridW, cell/cfg.GridW
		fresh := []core.Payload{core.Object(tiles[cell].Volume)}
		if x < cfg.GridW-1 {
			fresh = append(fresh, core.Object(tiles[cell+1].Volume.SubField(0, 0, 0, w, cfg.Tile, cfg.Tile)))
		}
		if y < cfg.GridH-1 {
			fresh = append(fresh, core.Object(tiles[cell+cfg.GridW].Volume.SubField(0, 0, 0, cfg.Tile, w, cfg.Tile)))
		}
		for _, wire := range []bool{false, true} {
			in := iterInputs(t, cfg, tiles, cell)
			nc := len(cfg.carriedDirs(x, y))
			blob := len(in) - 1 - nc
			for k := 0; k <= 4; k++ {
				out, err := cfg.iterProcess(in, core.IterId(k, core.TaskId(n+cell)))
				if err != nil {
					t.Fatal(err)
				}
				want, err := cfg.estimate(fresh, fresh[1:], cfg.carriedDirs(x, y), x, y, min(1+k, 2*cfg.Jitter), -1, Estimate{})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out[0].Data, want[0].Data) {
					t.Fatalf("cell %d iteration %d (wire %v): estimate differs from a fresh cut's", cell, k, wire)
				}
				if len(out) != 1+nc {
					t.Fatalf("cell %d: %d outputs, want %d", cell, len(out), 1+nc)
				}
				// The next iteration: empty strips from the extracts, the
				// root blob holding this estimate, and what was carried.
				next := make([]core.Payload, len(in))
				next[0] = in[0]
				b := cfg.seedBlob()
				copy(b[iterHdr+52*cell:], out[0].Data)
				next[blob] = core.Buffer(b)
				for c, p := range out[1:] {
					if _, ok := p.Object.(*data.Field); !ok {
						t.Fatalf("cell %d iteration %d: carried strip %d is not a decoded field", cell, k, c)
					}
					if wire {
						p = core.Buffer(p.Object.(*data.Field).Serialize())
					}
					next[blob+1+c] = p
				}
				in = next
			}
		}
	}
}

// TestIterativeSetupAllocationPins pins the allocations of the benchmark's
// set-up: building Iterative(8) and its map, Initialize, RegisterIter and
// IterInitial on the 6×6 grid. It makes 5 336. Compiling the unrolled
// graph twice and cloning its tasks three times, as before, made 14 016.
func TestIterativeSetupAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg, tiles := benchGrid()
	if n := testing.AllocsPerRun(5, func() { iterativeSetup(t, cfg, tiles) }); n > 7000 {
		t.Errorf("iterative set-up: %.0f allocations, pinned at 7 000 (14 016 when compiled twice)", n)
	}
}

// iterativeSetup is everything regiter-shm pays before its first Run.
func iterativeSetup(tb testing.TB, cfg Config, tiles []data.BrainTile) {
	ig, err := cfg.Iterative(8)
	if err != nil {
		tb.Fatal(err)
	}
	c := mpi.New(mpi.WithWorkers(2))
	if err := c.Initialize(ig, core.NewIterativeMap(2, ig)); err != nil {
		tb.Fatal(err)
	}
	if err := cfg.RegisterIter(c, ig); err != nil {
		tb.Fatal(err)
	}
	if _, err := cfg.IterInitial(tiles); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkIterativeSetup measures that set-up.
func BenchmarkIterativeSetup(b *testing.B) {
	cfg, tiles := benchGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterativeSetup(b, cfg, tiles)
	}
}
