// Command bfgraph renders BabelFlow's built-in task graphs (or local
// sub-graphs of them) in the Dot graph language — the paper's debugging
// aid for inspecting abstract task graphs.
//
// Usage:
//
//	bfgraph -graph reduction -leafs 8 -valence 2 > reduction.dot
//	bfgraph -graph mergetree -leafs 4 -valence 2 -o fig5.dot
//	bfgraph -graph binaryswap -leafs 8 -shards 4 -shard 0
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	babelflow "github.com/babelflow/babelflow-go"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mergetree"
)

func main() {
	var (
		kind    = flag.String("graph", "reduction", "reduction | broadcast | binaryswap | kwaymerge | neighbor | mergetree")
		leafs   = flag.Int("leafs", 4, "leaves / participants / grid cells per axis")
		valence = flag.Int("valence", 2, "tree fan-in/out")
		width   = flag.Int("width", 3, "neighbor grid width")
		height  = flag.Int("height", 2, "neighbor grid height")
		shards  = flag.Int("shards", 0, "restrict to one shard of the default placement (NewGraphMap) over this many shards (0 = whole graph)")
		shard   = flag.Int("shard", 0, "which shard to draw when -shards > 0")
		outPath = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	g, labels, err := buildGraph(*kind, *leafs, *valence, *width, *height)
	if err != nil {
		log.Fatal(err)
	}

	opt := babelflow.DotOptions{Name: *kind, Labels: labels, RankByLevel: true}
	if *shards > 0 {
		m := babelflow.NewGraphMap(*shards, g)
		want := make(map[babelflow.TaskId]bool)
		for _, id := range m.Ids(babelflow.ShardId(*shard)) {
			want[id] = true
		}
		opt.Filter = func(id babelflow.TaskId) bool { return want[id] }
		opt.Name = fmt.Sprintf("%s_shard%d", *kind, *shard)
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := babelflow.WriteDot(w, g, opt); err != nil {
		log.Fatal(err)
	}
}

func buildGraph(kind string, leafs, valence, width, height int) (babelflow.TaskGraph, map[babelflow.CallbackId]string, error) {
	switch kind {
	case "reduction":
		g, err := babelflow.NewReduction(leafs, valence)
		return g, map[babelflow.CallbackId]string{
			graphs.ReduceLeafCB: "leaf", graphs.ReduceMidCB: "reduce", graphs.ReduceRootCB: "root",
		}, err
	case "broadcast":
		g, err := babelflow.NewBroadcast(leafs, valence)
		return g, map[babelflow.CallbackId]string{
			graphs.BcastSourceCB: "source", graphs.BcastRelayCB: "relay", graphs.BcastSinkCB: "sink",
		}, err
	case "binaryswap":
		g, err := babelflow.NewBinarySwap(leafs)
		return g, map[babelflow.CallbackId]string{
			graphs.SwapLeafCB: "render", graphs.SwapMidCB: "swap", graphs.SwapRootCB: "tile",
		}, err
	case "kwaymerge":
		g, err := babelflow.NewKWayMerge(leafs, valence)
		return g, map[babelflow.CallbackId]string{
			graphs.MergeLeafCB: "leaf", graphs.MergeMidCB: "merge", graphs.MergeRootCB: "root",
			graphs.MergeRelayCB: "relay", graphs.MergeFinalCB: "final",
		}, err
	case "neighbor":
		g, err := babelflow.NewNeighbor2D(width, height)
		return g, map[babelflow.CallbackId]string{
			graphs.NeighborExtractCB: "read", graphs.NeighborProcessCB: "correlate",
		}, err
	case "mergetree":
		g, err := mergetree.NewGraph(leafs, valence)
		return g, map[babelflow.CallbackId]string{
			mergetree.CBLocal: "local", mergetree.CBJoin: "join", mergetree.CBRelay: "relay",
			mergetree.CBCorrection: "correction", mergetree.CBSegmentation: "segmentation",
		}, err
	}
	return nil, nil, fmt.Errorf("bfgraph: unknown graph kind %q", kind)
}
