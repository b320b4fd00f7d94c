package register

import (
	"errors"
	"math"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// nccReference is the per-voxel NCC the row kernel replaced: every strip
// voxel is visited in (k, j, i) order and out-of-bounds ones are skipped.
func nccReference(tile, strip *data.Field, dx, dy int) float64 {
	var sa, sb, saa, sbb, sab float64
	n := 0
	for k := 0; k < strip.NZ; k++ {
		for j := 0; j < strip.NY; j++ {
			tj := j + dy
			if tj < 0 || tj >= tile.NY {
				continue
			}
			for i := 0; i < strip.NX; i++ {
				ti := i + dx
				if ti < 0 || ti >= tile.NX {
					continue
				}
				a := float64(tile.At(ti, tj, k))
				b := float64(strip.At(i, j, k))
				sa += a
				sb += b
				saa += a * a
				sbb += b * b
				sab += a * b
				n++
			}
		}
	}
	if n < 8 {
		return math.Inf(-1)
	}
	fn := float64(n)
	cov := sab - sa*sb/fn
	va := saa - sa*sa/fn
	vb := sbb - sb*sb/fn
	if va <= 0 || vb <= 0 {
		return math.Inf(-1)
	}
	return cov / math.Sqrt(va*vb)
}

// fullScan is the plain strict-'>' scan of the whole window of radius r the
// ring search replaced.
func fullScan(cfg Config, tile, strip *data.Field, dir graphs.Direction, r int) match {
	cx, cy := cfg.Stride(), 0
	if dir == graphs.South {
		cx, cy = 0, cx
	}
	best := match{score: math.Inf(-1)}
	for dy := cy - r; dy <= cy+r; dy++ {
		for dx := cx - r; dx <= cx+r; dx++ {
			if s := nccReference(tile, strip, dx, dy); s > best.score {
				best = match{dx, dy, s}
			}
		}
	}
	return best
}

func sameMatch(a, b match) bool {
	return a.dx == b.dx && a.dy == b.dy && math.Float64bits(a.score) == math.Float64bits(b.score)
}

// TestRingSearchMatchesFullScan draws random tiles and strips, and grows the
// window r = 0…2J the way the refinement loop does: each radius's ring
// search, seeded with the previous radius's result, must equal the plain
// scan of the whole window, bit for bit. Every third draw is flat (every
// score −Inf) or constant along one axis (exact ties everywhere); the row
// kernel must equal the per-voxel one at every displacement tried.
func TestRingSearchMatchesFullScan(t *testing.T) {
	rng := data.NewRand(2026)
	for draw := 0; draw < 600; draw++ {
		nx, ny, nz := 4+rng.Intn(12), 4+rng.Intn(12), 1+rng.Intn(3)
		tile := data.NewField(nx, ny, nz)
		for i := range tile.Values {
			_, y, z := tile.Coords(i)
			switch draw % 6 {
			case 0:
				tile.Values[i] = 0.5 // flat
			case 3:
				tile.Values[i] = float32((y*7 + z*3) % 5) // constant along x
			default:
				tile.Values[i] = float32(rng.Float64())
			}
		}
		dir := graphs.East
		if draw%2 == 1 {
			dir = graphs.South
		}
		cfg := Config{Tile: nx, Overlap: 0.1 + 0.4*rng.Float64(), Jitter: rng.Intn(4)}
		if dir == graphs.South {
			cfg.Tile = ny
		}
		strip := tile.SubField(rng.Intn(nx), rng.Intn(ny), 0, 1+rng.Intn(nx), 1+rng.Intn(ny), nz)
		if draw%5 == 4 { // an unrelated strip
			for i := range strip.Values {
				strip.Values[i] = float32(rng.Intn(3))
			}
		}

		cx, cy := cfg.Stride(), 0
		if dir == graphs.South {
			cx, cy = 0, cx
		}
		j := 2 * cfg.Jitter
		for dy := cy - j - 1; dy <= cy+j+1; dy++ {
			for dx := cx - j - 1; dx <= cx+j+1; dx++ {
				if got, want := ncc(tile, strip, dx, dy), nccReference(tile, strip, dx, dy); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("draw %d: ncc(%d, %d) = %v, per-voxel %v", draw, dx, dy, got, want)
				}
			}
		}
		var prev match
		for r := 0; r <= j; r++ {
			want := fullScan(cfg, tile, strip, dir, r)
			if whole := cfg.search(tile, strip, dir, r, -1, match{}); !sameMatch(whole, want) {
				t.Fatalf("draw %d r=%d: whole-window search %+v, full scan %+v", draw, r, whole, want)
			}
			if r > 0 {
				if ring := cfg.search(tile, strip, dir, r, r-1, prev); !sameMatch(ring, want) {
					t.Fatalf("draw %d r=%d: ring search %+v, full scan %+v", draw, r, ring, want)
				}
			}
			if same := cfg.search(tile, strip, dir, r, r, want); !sameMatch(same, want) {
				t.Fatalf("draw %d r=%d: empty ring moved %+v to %+v", draw, r, want, same)
			}
			prev = want
		}
	}
}

// TestMergeRule pins the rule the ring search merges with: the strict scan
// keeps the first maximum in (dy, dx) order.
func TestMergeRule(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name       string
		m, c, want match
	}{
		{"higher wins", match{5, 0, 0.5}, match{7, 1, 0.6}, match{7, 1, 0.6}},
		{"lower loses", match{5, 0, 0.5}, match{3, -1, 0.4}, match{5, 0, 0.5}},
		{"tie, earlier row wins", match{5, 0, 0.5}, match{7, -1, 0.5}, match{7, -1, 0.5}},
		{"tie, same row, earlier column wins", match{5, 0, 0.5}, match{4, 0, 0.5}, match{4, 0, 0.5}},
		{"tie, later row loses", match{5, 0, 0.5}, match{3, 1, 0.5}, match{5, 0, 0.5}},
		{"tie, same row, later column loses", match{5, 0, 0.5}, match{6, 0, 0.5}, match{5, 0, 0.5}},
		{"-Inf tie keeps the start", match{0, 0, -inf}, match{-2, -2, -inf}, match{0, 0, -inf}},
		{"finite beats -Inf", match{0, 0, -inf}, match{2, 2, -1}, match{2, 2, -1}},
		{"-Inf loses to finite", match{5, 0, -1}, match{-3, -3, -inf}, match{5, 0, -1}},
		{"+Inf beats finite", match{5, 0, 1}, match{6, 1, inf}, match{6, 1, inf}},
		{"+Inf tie, earlier wins", match{5, 0, inf}, match{4, 0, inf}, match{4, 0, inf}},
		{"+Inf tie, later loses", match{5, 0, inf}, match{6, 0, inf}, match{5, 0, inf}},
		{"NaN never wins", match{5, 0, -inf}, match{4, -1, nan}, match{5, 0, -inf}},
	} {
		if got := c.m.merge(c.c); !sameMatch(got, c.want) {
			t.Errorf("%s: %+v.merge(%+v) = %+v, want %+v", c.name, c.m, c.c, got, c.want)
		}
	}
}

// TestValidateRejectsWideGrids: an Estimate stores cell coordinates in one
// byte each, so a grid past 256 on either axis must be refused before any
// tile exists, by every entry that takes a Config.
func TestValidateRejectsWideGrids(t *testing.T) {
	var ce *ConfigError
	for _, cfg := range []Config{
		{GridW: 257, GridH: 1, Tile: 24, Overlap: 0.2, Jitter: 2},
		{GridW: 1, GridH: 257, Tile: 24, Overlap: 0.2, Jitter: 2},
		{GridW: 0, GridH: 3, Tile: 24, Jitter: 2},
		{GridW: 3, GridH: 3, Tile: 1, Jitter: 2},
		{GridW: 3, GridH: 3, Tile: 24, Jitter: -1},
	} {
		if err := cfg.Validate(); !errors.As(err, &ce) {
			t.Errorf("%+v: Validate = %v, want a *ConfigError", cfg, err)
		}
		if _, err := cfg.Iterative(4); !errors.As(err, &ce) {
			t.Errorf("%+v: Iterative = %v, want a *ConfigError", cfg, err)
		}
	}
	wide := Config{GridW: 257, GridH: 1, Tile: 24, Overlap: 0.2, Jitter: 2}
	g, err := wide.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.Register(core.NewSerial(), g); !errors.As(err, &ce) {
		t.Errorf("Register on 257x1 = %v, want a *ConfigError", err)
	}
	if err := (Config{GridW: 256, GridH: 256, Tile: 2}).Validate(); err != nil {
		t.Errorf("256x256 rejected: %v", err)
	}
}

// processInputs builds process task (cell)'s inputs on the benchmark's 6×6
// grid: its tile, the strips its neighbors' extracts send it in iteration
// 0, the root blob of iteration 0 as the carried estimate, and the strips
// iteration 0 carries on.
func processInputs(tb testing.TB) (Config, []core.Payload, int) {
	tb.Helper()
	cfg, tiles := benchGrid()
	cell := 7
	in := iterInputs(tb, cfg, tiles, cell)
	out, err := cfg.iterProcess(in, core.TaskId(cfg.cells()+cell))
	if err != nil {
		tb.Fatal(err)
	}
	blob := cfg.seedBlob()
	copy(blob[iterHdr+52*cell:], out[0].Data)
	in[len(in)-len(out)] = core.Buffer(blob)
	copy(in[len(in)-len(out)+1:], out[1:])
	return cfg, in, cell
}

// iterInputs builds process task (cell)'s iteration-0 inputs out of the
// iteration-0 outputs of its neighbors' extract tasks.
func iterInputs(tb testing.TB, cfg Config, tiles []data.BrainTile, cell int) []core.Payload {
	tb.Helper()
	x, y := cell%cfg.GridW, cell/cfg.GridW
	in := []core.Payload{core.Object(tiles[cell].Volume)}
	for _, d := range cfg.neighborDirs(x, y) {
		nx, ny := neighborCell(x, y, d)
		out, err := cfg.iterExtract([]core.Payload{core.Object(tiles[ny*cfg.GridW+nx].Volume)}, core.TaskId(ny*cfg.GridW+nx))
		if err != nil {
			tb.Fatal(err)
		}
		for s, back := range cfg.neighborDirs(nx, ny) {
			if bx, by := neighborCell(nx, ny, back); bx == x && by == y {
				in = append(in, out[1+s])
			}
		}
	}
	in = append(in, core.Buffer(cfg.seedBlob()))
	return append(in, make([]core.Payload, len(cfg.carriedDirs(x, y)))...)
}

// BenchmarkCorrelate measures the full-window search (J = 2, 81
// displacements) of a 24³ tile against its East and South neighbors'
// strips.
func BenchmarkCorrelate(b *testing.B) {
	cfg, in, _ := processInputs(b)
	tile := in[0].Object.(*data.Field)
	for _, c := range []struct {
		name string
		dir  graphs.Direction
		slot int
	}{{"East", graphs.East, 2}, {"South", graphs.South, 4}} {
		strip := in[c.slot].Object.(*data.Field)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.search(tile, strip, c.dir, 2*cfg.Jitter, -1, match{})
			}
		})
	}
}

// TestRegisterAllocationPins pins that a window search allocates nothing
// and that a process task allocates only its estimate buffer and output
// slice, whether it scans the first window or the ring past a carried
// estimate.
func TestRegisterAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg, in, cell := processInputs(t)
	tile, strip := in[0].Object.(*data.Field), in[2].Object.(*data.Field)
	if a := testing.AllocsPerRun(10, func() { cfg.search(tile, strip, graphs.East, 4, 2, match{}) }); a != 0 {
		t.Errorf("search: %.0f allocations, want 0", a)
	}
	for _, k := range []int{0, 1} {
		id := core.IterId(k, core.TaskId(cfg.cells()+cell))
		if a := testing.AllocsPerRun(10, func() { cfg.iterProcess(in, id) }); a > 2 {
			t.Errorf("iterProcess at iteration %d: %.0f allocations, want ≤ 2", k, a)
		}
	}
}
