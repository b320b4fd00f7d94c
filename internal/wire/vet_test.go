package wire

import (
	"net"
	"strings"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
)

// TestAcceptDecisions drives every control listener's accept decision with
// no socket: rank 0's registrar, a pair acceptor and the membership gate,
// one row per refusal reason plus the hellos each admits. The inputs are
// the ones each listener has: the local hello, the ranks already admitted,
// the arriving hello and the network it arrived over.
func TestAcceptDecisions(t *testing.T) {
	fp := core.Fingerprint{7}
	pair := hello{Rank: 1, Ranks: 4, Epoch: 2, Tier: TierAuto, Fingerprint: fp}
	registrar := pair
	registrar.Rank = 0
	admitted := make([]net.Conn, 4)
	admitted[3] = &net.TCPConn{} // rank 3 is connected
	links := []link{{}, {}, {network: "unix"}, {network: "tcp"}}
	decide := map[string]func(h hello, arrived string) string{
		"registrar": func(h hello, _ string) string { return vetWorker(registrar, admitted, h) },
		"pair":      func(h hello, arrived string) string { return vetPair(pair, admitted, links, h, arrived) },
		"gate":      func(h hello, _ string) string { return vetGate(fp, h) },
	}
	rows := []struct {
		name    string // listener/case
		edit    func(*hello)
		arrived string
		want    string // a substring of the refusal; "" admits
	}{
		{"registrar/admits_worker", nil, "tcp", ""},
		{"pair/admits_worker", nil, "unix", ""},
		{"gate/admits_join", func(h *hello) { h.Kind = KindJoin }, "tcp", ""},
		{"gate/admits_drain", func(h *hello) { h.Kind, h.Rank = KindDrain, 5 }, "tcp", ""},

		{"registrar/rank_below_range", func(h *hello) { h.Rank = 0 }, "tcp", "rank 0 out of range [1,4)"},
		{"pair/rank_below_range", func(h *hello) { h.Rank = 1 }, "unix", "rank 1 out of range [2,4)"},
		{"pair/rank_above_range", func(h *hello) { h.Rank = 4 }, "unix", "rank 4 out of range [2,4)"},
		{"registrar/rank_connected", func(h *hello) { h.Rank = 3 }, "tcp", "rank 3 already connected"},
		{"pair/rank_count", func(h *hello) { h.Ranks = 5 }, "unix", "rank count mismatch"},
		{"registrar/epoch", func(h *hello) { h.Epoch = 1 }, "tcp", "recovery epoch mismatch"},
		{"pair/tier", func(h *hello) { h.Tier = TierShm }, "unix", "transport tier mismatch"},
		{"registrar/fingerprint", func(h *hello) { h.Fingerprint[0]++ }, "tcp", "graph fingerprint mismatch"},
		{"gate/fingerprint", func(h *hello) { h.Kind, h.Fingerprint[0] = KindJoin, 8 }, "tcp", "graph fingerprint mismatch"},
		{"gate/worker_hello", nil, "tcp", "worker hello on the membership gate"},
		{"pair/join_hello", func(h *hello) { h.Kind = KindJoin }, "unix", "join hello on the data plane"},
		{"registrar/drain_hello", func(h *hello) { h.Kind = KindDrain }, "tcp", "drain hello on the data plane"},
		{"pair/wrong_network", nil, "tcp", "rank 2 dialed over tcp, but the pair links over unix"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := hello{Rank: 2, Ranks: 4, Epoch: 2, Tier: TierAuto, Fingerprint: fp}
			if row.edit != nil {
				row.edit(&h)
			}
			listener, _, _ := strings.Cut(row.name, "/")
			got := decide[listener](h, row.arrived)
			if row.want == "" && got != "" || !strings.Contains(got, row.want) {
				t.Errorf("%v hello from rank %d over %s: reason %q, want %q", h.Kind, h.Rank, row.arrived, got, row.want)
			}
		})
	}
}
