package wire

import (
	"fmt"
	"net"
	"sync"
)

// Mesh bootstraps a complete n-rank fabric in-process over a loopback
// listener on an ephemeral port — the building block of the in-process
// recovery harness, benchmarks and tests. The template's Rank, Ranks, Addr
// and Listener are filled in per rank; everything else (fingerprint, epoch,
// heartbeat tuning) is taken from the template. The returned slice is
// indexed by rank.
func Mesh(n int, template Options) ([]*Fabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("wire: mesh of %d ranks", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wire: mesh listen: %w", err)
	}
	fabrics := make([]*Fabric, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			opt := template
			opt.Rank = rank
			opt.Ranks = n
			opt.Addr = ln.Addr().String()
			if rank == 0 {
				opt.Listener = ln
			} else {
				opt.Listener = nil
			}
			fabrics[rank], errs[rank] = Connect(opt)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			for _, f := range fabrics {
				if f != nil {
					f.Kill()
				}
			}
			return nil, fmt.Errorf("wire: mesh rank %d: %w", rank, err)
		}
	}
	return fabrics, nil
}
