package wire

import (
	"encoding/hex"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
)

// controlGolden is every control frame kind, encoded, with the bytes it
// must encode to. The hex pins the wire format itself: a codec change that
// keeps encode and decode in agreement with each other still fails here
// when it moves one byte. FuzzHandshakeDecode seeds from these frames.
func controlGolden(t testing.TB) []struct {
	name  string
	frame []byte
	hex   string
} {
	welcome, err := encodeWelcome([]endpoint{
		{TCP: "x:1", HostID: "h"},
		{TCP: "y:2", Unix: "/tmp/y.sock", HostID: "h", Shm: "/dev/shm/y", ShmGen: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		frame []byte
		hex   string
	}{
		{"hello-ring", encodeHello(hello{Rank: 1, Ranks: 2, Epoch: 3, Tier: TierAuto, Fingerprint: core.Fingerprint{7},
			Endpoint: endpoint{TCP: "a:1", Unix: "/tmp/a.sock", HostID: "h", Shm: "/dev/shm/a", ShmGen: 3},
			Ring:     "/dev/shm/bfshm-1/ring-1.shm", RingBytes: 1 << 20}), "7d0000000480ed45ba010000000200000003000000000007000000000000000000000000000000000000000000000000000000000000000300613a310b002f746d702f612e736f636b0100680a002f6465762f73686d2f6103000000000000001b002f6465762f73686d2f626673686d2d312f72696e672d312e73686d0000100000000000"},
		{"hello-join", encodeHello(hello{Rank: 2, Ranks: 4, Epoch: 1, Tier: TierShm, Kind: KindJoin,
			Fingerprint: core.Fingerprint{7}, Endpoint: endpoint{TCP: "a:1", HostID: "h"}}), "4d00000004021a3fad020000000400000001000000030107000000000000000000000000000000000000000000000000000000000000000300613a3100000100680000000000000000000000000000000000000000"},
		{"welcome", welcome, "4200000005c15ccc00020000000300783a310000010068000000000000000000000300793a320b002f746d702f792e736f636b0100680a002f6465762f73686d2f790300000000000000"},
		{"reject", encodeReject("graph fingerprint mismatch"), "1b00000006f7bfa2cc67726170682066696e6765727072696e74206d69736d61746368"},
		{"accept-true", encodeAccept(true), "020000000752d016a001"},
		{"accept-false", encodeAccept(false), "020000000751537d5200"},
		{"ticket", encodeTicket(Ticket{Action: ActionRun, Member: 5, Epoch: 2, Rank: 1, Ranks: 3,
			Addr: "127.0.0.1:7000", Members: []int{0, 5, 2}, Retired: []int{4}}), "3a0000000bafcc95e300050000000200000001000000030000000e003132372e302e302e313a37303030030000000000000005000000020000000100000004000000"},
		{"status-ok", encodeStatus(Status{Member: 5, Epoch: 2, OK: true, Detail: "replayed=3"}), "160000000ca15d5a7c0500000002000000010a007265706c617965643d33"},
		{"status-failed", encodeStatus(Status{Member: 1, Epoch: 9, Detail: "boom"}), "100000000cad3555ad0100000009000000000400626f6f6d"},
	}
}

// TestControlFramesGolden pins every control frame to its committed bytes,
// and every decoder to reading those bytes back into the same frame.
func TestControlFramesGolden(t *testing.T) {
	for _, g := range controlGolden(t) {
		if got := hex.EncodeToString(g.frame); got != g.hex {
			t.Errorf("%s: encoded\n%s\nwant\n%s", g.name, got, g.hex)
			continue
		}
		re, ok := reencodeControl[g.frame[4]]
		if !ok {
			t.Fatalf("%s: no decoder for frame type %d", g.name, g.frame[4])
		}
		enc, err := re(g.frame[frameHeaderSize:])
		if err != nil || hex.EncodeToString(enc) != g.hex {
			t.Errorf("%s: decode and re-encode gave %x, %v", g.name, enc, err)
		}
	}
}
