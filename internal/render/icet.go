package render

import (
	"fmt"
	"sort"

	"github.com/babelflow/babelflow-go/internal/data"
)

// IceT is the specialized sort-last compositing baseline of §V-B: a direct,
// hand-coded compositor without the generic framework's task abstraction,
// de/serialization or thread hand-off. To provide a fair comparison the
// paper disabled IceT's interlacing and background filtering. Here both the
// dataflows and this baseline exchange the same active-rectangle images and
// densify only the final frame or tiles, so the comparison stays
// like-for-like.
//
// IceT here composites with the same binary tree or binary-swap schedule as
// the dataflows, but executed directly over in-memory images.
type IceT struct {
	cfg Config
}

// NewIceT returns the baseline compositor for a pipeline configuration.
func NewIceT(cfg Config) *IceT { return &IceT{cfg: cfg} }

// RenderAndCompositeTree renders every block and composites them with a
// binary reduction tree, returning the final frame.
func (i *IceT) RenderAndCompositeTree(f *data.Field) (*Image, error) {
	images, err := i.renderAll(f)
	if err != nil {
		return nil, err
	}
	return CompositeTree(i.cfg.Camera, images)
}

// RenderAndCompositeSwap renders every block and composites them with the
// binary-swap schedule, returning the n tiles sorted by frame position.
func (i *IceT) RenderAndCompositeSwap(f *data.Field) ([]*Image, error) {
	images, err := i.renderAll(f)
	if err != nil {
		return nil, err
	}
	return CompositeSwap(i.cfg.Camera, images)
}

// renderAll renders every block in place, as the dataflows' leaves do.
func (i *IceT) renderAll(f *data.Field) ([]*Image, error) {
	views, err := i.cfg.Decomp.Views(f)
	if err != nil {
		return nil, err
	}
	images := make([]*Image, len(views))
	for b := range views {
		images[b] = renderView(i.cfg.Camera, i.cfg.TF, &views[b])
	}
	return images, nil
}

// CompositeTree composites images pairwise along a binary tree over the
// input order (adjacent ranges first), the schedule of the reduction
// dataflow, and returns the dense camera frame. It may composite into the
// input images.
func CompositeTree(cam Camera, images []*Image) (*Image, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("render: no images to composite")
	}
	level := images
	for len(level) > 1 {
		next := make([]*Image, 0, (len(level)+1)/2)
		for j := 0; j < len(level); j += 2 {
			if j+1 == len(level) {
				next = append(next, level[j])
				continue
			}
			next = append(next, level[j].Over(level[j+1]))
		}
		level = next
	}
	return level[0].window(cam.frame()), nil
}

// CompositeSwap runs the binary-swap schedule directly: log2(n) rounds of
// pairwise split-and-exchange over the frame regions of swapRegion. It
// returns one dense tile per participant, ordered by frame position. The
// participant count must be a power of two.
func CompositeSwap(cam Camera, images []*Image) ([]*Image, error) {
	n := len(images)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("render: binary swap needs a power-of-two image count, got %d", n)
	}
	cur := make([]*Image, n)
	copy(cur, images)
	rounds := 0
	for ; 1<<rounds < n; rounds++ {
		next := make([]*Image, n)
		for i := range next {
			keep := cur[i].crop(cam.swapRegion(rounds+1, i))
			recv := cur[i^1<<rounds].crop(cam.swapRegion(rounds+1, i))
			next[i] = keep.Over(recv)
		}
		cur = next
	}
	for i, im := range cur {
		cur[i] = im.window(cam.swapRegion(rounds, i))
	}
	sort.SliceStable(cur, func(a, b int) bool {
		if cur[a].Y0 != cur[b].Y0 {
			return cur[a].Y0 < cur[b].Y0
		}
		return cur[a].X0 < cur[b].X0
	})
	return cur, nil
}

// AssembleTiles pastes binary-swap tiles back into one frame. Every tile
// must lie inside the frame.
func AssembleTiles(tiles []*Image, width, height int) (*Image, error) {
	cam := Camera{Width: width, Height: height}
	out := NewImage(width, height, 0, 0)
	for _, t := range tiles {
		if err := cam.holds(t); err != nil {
			return nil, err
		}
		out.paste(t)
	}
	return out, nil
}
