package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/babelflow/babelflow-go/internal/core"
)

// Wire frame format. Every frame is length-prefixed and checksummed:
//
//	u32  length of the type byte + body (i.e. 1 + len(body))
//	u8   frame type
//	u32  CRC32C (Castagnoli) of the body
//	...  body
//
// Bodies by type:
//
//	frameData:      u64 src task id | u64 dest task id | u64 run |
//	                u64 seq | u32 attempt | payload bytes; run identifies
//	                the graph instance when many runs multiplex over one
//	                fabric (0 = unmultiplexed one-shot traffic)
//	frameHeartbeat: empty
//	frameGoodbye:   empty — the peer has flushed everything it will ever
//	                send; a subsequent EOF on the connection is clean
//	frameHello:     u32 rank | u32 ranks | u32 epoch | u8 tier | u8 kind |
//	                32-byte fingerprint | u16+tcp data address |
//	                u16+unix data address | u16+host id |
//	                u16+shm dir | u64 shm generation |
//	                u16+ring path | u64 ring bytes; kind distinguishes a
//	                data-plane worker (KindWorker) from a membership-gate
//	                dial (KindJoin / KindDrain) — the data-plane rendezvous
//	                rejects the latter. A pair hello whose link carries a
//	                shm ring names the dialer's region file and its
//	                per-direction ring bytes; an empty path withdraws the
//	                offer (the dialer cannot shm). Every other hello
//	                carries an empty ring
//	frameWelcome:   u32 n | n × (u16+tcp addr | u16+unix addr | u16+host
//	                id | u16+shm dir | u64 shm gen), the endpoint table
//	                indexed by rank (rendezvous reply); co-located ranks
//	                use the unix endpoints and, when both advertise a shm
//	                dir, a shared-memory ring pair
//	frameReject:    reason string (handshake refusal)
//	frameAccept:    u8 mapped (pair handshake confirmation: 1 = the
//	                hello's ring region is mapped, 0 = no ring, or the
//	                offer declined)
//	frameDoorbell:  empty — a shm-ring wakeup: "check your rings". Sent
//	                when the remote consumer parked (cwait) before a
//	                publish, or the remote producer stalled full (pwait)
//	                before space was freed
//	frameTicket:    membership-gate ticket (encodeTicket)
//	frameStatus:    membership-gate status report (encodeStatus)
//
// All integers are little-endian. The length prefix never exceeds
// maxFrameSize; larger frames poison the connection. A frame whose body
// does not match its CRC32C fails decode with a typed ErrCorruptFrame —
// the receiver treats the connection as lost (a flipped bit means the
// stream can no longer be trusted) and the recovery layer re-executes
// around it, exactly as for a crashed peer.
const (
	frameData byte = iota + 1
	frameHeartbeat
	frameGoodbye
	frameHello
	frameWelcome
	frameReject
	frameAccept
	frameDoorbell
	_ // 9 and 10 are unused: the types after them keep their values,
	_ // which the committed fuzz corpus names
	frameTicket
	frameStatus
)

// HelloKind tags what a dialing process wants from rank 0: to bootstrap the
// data plane of the current epoch (worker), to join the membership at the
// next epoch boundary, or to request a graceful drain.
type HelloKind byte

const (
	KindWorker HelloKind = iota
	KindJoin
	KindDrain
)

func (k HelloKind) String() string {
	switch k {
	case KindWorker:
		return "worker"
	case KindJoin:
		return "join"
	case KindDrain:
		return "drain"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

const (
	frameHeaderSize = 9         // u32 length + u8 type + u32 crc32c(body)
	dataHeaderSize  = 36        // u64 src + u64 dest + u64 run + u64 seq + u32 attempt
	maxFrameSize    = 1 << 30   // hard ceiling on a single frame
	fingerprintSize = 32        // sha256
	maxAddrLen      = 1<<16 - 1 // address strings are u16-length-prefixed
)

// DataFrameOverhead is the number of framing bytes preceding the payload of
// a data frame (frame header plus data header). Exported for fault
// injectors that aim at payload bytes: a write of at least
// DataFrameOverhead+1 bytes carries payload, while control frames
// (heartbeats, goodbyes) are far smaller.
const DataFrameOverhead = frameHeaderSize + dataHeaderSize

// castagnoli is the CRC32C table, hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptFrame marks a frame whose body failed its CRC32C check: the
// byte stream is untrustworthy, so the receiver declares the peer lost.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// errFrameLength marks a length prefix outside [1, maxFrameSize]. On a
// socket it usually means a framing bug; inside a shm ring it is the
// signature of a torn write and is surfaced as ErrCorruptFrame.
var errFrameLength = errors.New("wire: frame length out of range")

// finishFrame stamps the frame header of b (whose first frameHeaderSize
// bytes are reserved and whose remainder is the body) and returns b.
func finishFrame(b []byte, typ byte) []byte {
	body := b[frameHeaderSize:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(body)+1))
	b[4] = typ
	binary.LittleEndian.PutUint32(b[5:9], crc32.Checksum(body, castagnoli))
	return b
}

// encodeDataHeader stamps the complete framing of one data frame — frame
// header plus data header — into hdr, which must be exactly
// DataFrameOverhead bytes. The CRC is accumulated over the data header and
// the payload, but the payload itself is NOT copied: the vectored write
// path hands hdr and the payload to the kernel as adjacent iovecs.
func encodeDataHeader(hdr []byte, src, dest core.TaskId, run, seq uint64, attempt uint32, payload []byte) {
	_ = hdr[DataFrameOverhead-1]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+dataHeaderSize+len(payload)))
	hdr[4] = frameData
	binary.LittleEndian.PutUint64(hdr[frameHeaderSize:], uint64(src))
	binary.LittleEndian.PutUint64(hdr[frameHeaderSize+8:], uint64(dest))
	binary.LittleEndian.PutUint64(hdr[frameHeaderSize+16:], run)
	binary.LittleEndian.PutUint64(hdr[frameHeaderSize+24:], seq)
	binary.LittleEndian.PutUint32(hdr[frameHeaderSize+32:], attempt)
	crc := crc32.Update(0, castagnoli, hdr[frameHeaderSize:DataFrameOverhead])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[5:9], crc)
}

// encodeDataFrame appends one data frame carrying payload to dst — the
// contiguous form used when the connection cannot take vectored writes
// (fault-injection wrappers, which count whole-batch Write calls).
func encodeDataFrame(dst []byte, src, dest core.TaskId, run, seq uint64, attempt uint32, payload []byte) []byte {
	var hdr [DataFrameOverhead]byte
	encodeDataHeader(hdr[:], src, dest, run, seq, attempt, payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// dataFrameSize returns the encoded size of a data frame with an n-byte
// payload.
func dataFrameSize(n int) int { return frameHeaderSize + dataHeaderSize + n }

// controlFrame returns an encoded empty-body frame.
func controlFrame(typ byte) []byte {
	var b [frameHeaderSize]byte
	return finishFrame(b[:], typ)
}

// readFrame reads one frame header and returns its type, body length and
// the body's expected CRC32C. The caller reads the body and verifies. It
// reads into a header of its own; a peer's reader uses peer.readFrame.
func readFrame(r io.Reader) (typ byte, n int, crc uint32, err error) {
	var hdr [frameHeaderSize]byte
	return readFrameLimit(r, hdr[:], maxFrameSize)
}

// readFrameLimit is readFrame into the caller's header scratch hdr (at
// least frameHeaderSize bytes) with an explicit frame-size ceiling: the
// declared length is validated before any body allocation, so a hostile or
// corrupt length prefix costs nothing. (The fuzz harness uses a small
// limit; production paths use maxFrameSize.)
func readFrameLimit(r io.Reader, hdr []byte, max int) (typ byte, n int, crc uint32, err error) {
	hdr = hdr[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, 0, err
	}
	l := binary.LittleEndian.Uint32(hdr[0:4])
	if l < 1 || l > uint32(max) {
		return 0, 0, 0, fmt.Errorf("%w: %d", errFrameLength, l)
	}
	return hdr[4], int(l) - 1, binary.LittleEndian.Uint32(hdr[5:9]), nil
}

// verifyBody checks a fully read frame body against the header's CRC32C.
func verifyBody(typ byte, body []byte, crc uint32) error {
	if got := crc32.Checksum(body, castagnoli); got != crc {
		return fmt.Errorf("%w: type %d, %d-byte body, crc %08x != header %08x",
			ErrCorruptFrame, typ, len(body), got, crc)
	}
	return nil
}

// endpoint is one rank's advertised data endpoints: its TCP listener, its
// unix-domain listener (empty when the rank could not or should not open
// one), an opaque host identity used to decide co-location, and the
// shared-memory fields — the directory this rank creates ring files in
// (empty when it cannot or should not use shm) plus the ring generation it
// will stamp them with (the fabric epoch, so a straggler's stale region is
// never mapped).
type endpoint struct {
	TCP    string
	Unix   string
	HostID string
	Shm    string
	ShmGen uint64
}

// endpointWireSize is the encoded size of one endpoint table entry: four
// u16 length prefixes plus the u64 generation plus the string bytes.
func endpointWireSize(ep endpoint) int {
	return 16 + len(ep.TCP) + len(ep.Unix) + len(ep.HostID) + len(ep.Shm)
}

func appendEndpoint(b []byte, ep endpoint) []byte {
	b = appendString(b, ep.TCP)
	b = appendString(b, ep.Unix)
	b = appendString(b, ep.HostID)
	b = appendString(b, ep.Shm)
	return binary.LittleEndian.AppendUint64(b, ep.ShmGen)
}

// takeEndpoint consumes one endpoint table entry from body at off,
// returning the new offset or -1 on truncation.
func takeEndpoint(body []byte, off int) (endpoint, int) {
	var ep endpoint
	ep.TCP, off = takeString(body, off)
	if off >= 0 {
		ep.Unix, off = takeString(body, off)
	}
	if off >= 0 {
		ep.HostID, off = takeString(body, off)
	}
	if off >= 0 {
		ep.Shm, off = takeString(body, off)
	}
	if off >= 0 {
		if len(body) < off+8 {
			return ep, -1
		}
		ep.ShmGen = binary.LittleEndian.Uint64(body[off:])
		off += 8
	}
	return ep, off
}

// hello is the handshake announcement either side of a connection sends
// first.
type hello struct {
	Rank        int
	Ranks       int
	Epoch       int
	Tier        Tier
	Kind        HelloKind // zero (KindWorker) on all data-plane handshakes
	Fingerprint core.Fingerprint
	Endpoint    endpoint // the sender's advertised data endpoints
	// Ring and RingBytes are a dialer's shm ring offer: the path of the
	// region file it created and the per-direction ring bytes. Empty when
	// the pair links without a ring or the dialer could not create one.
	Ring      string
	RingBytes uint64
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// takeString consumes one u16-length-prefixed string from body at off,
// returning the string and the new offset, or -1 on truncation.
func takeString(body []byte, off int) (string, int) {
	if len(body) < off+2 {
		return "", -1
	}
	l := int(binary.LittleEndian.Uint16(body[off:]))
	off += 2
	if len(body) < off+l {
		return "", -1
	}
	return string(body[off : off+l]), off + l
}

func encodeHello(h hello) []byte {
	body := 4 + 4 + 4 + 2 + fingerprintSize + endpointWireSize(h.Endpoint) + 10 + len(h.Ring)
	b := make([]byte, frameHeaderSize, frameHeaderSize+body)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Rank))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Ranks))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Epoch))
	b = append(b, byte(h.Tier))
	b = append(b, byte(h.Kind))
	b = append(b, h.Fingerprint[:]...)
	b = appendEndpoint(b, h.Endpoint)
	b = appendString(b, h.Ring)
	b = binary.LittleEndian.AppendUint64(b, h.RingBytes)
	return finishFrame(b, frameHello)
}

func decodeHello(body []byte) (hello, error) {
	var h hello
	if len(body) < 4+4+4+2+fingerprintSize+16+10 {
		return h, fmt.Errorf("wire: hello frame truncated (%d bytes)", len(body))
	}
	h.Rank = int(binary.LittleEndian.Uint32(body))
	h.Ranks = int(binary.LittleEndian.Uint32(body[4:]))
	h.Epoch = int(binary.LittleEndian.Uint32(body[8:]))
	h.Tier = Tier(body[12])
	h.Kind = HelloKind(body[13])
	copy(h.Fingerprint[:], body[14:14+fingerprintSize])
	var off int
	h.Endpoint, off = takeEndpoint(body, 14+fingerprintSize)
	if off >= 0 {
		h.Ring, off = takeString(body, off)
	}
	if off < 0 || len(body) != off+8 {
		return h, fmt.Errorf("wire: hello frame length mismatch")
	}
	h.RingBytes = binary.LittleEndian.Uint64(body[off:])
	return h, nil
}

func encodeWelcome(eps []endpoint) ([]byte, error) {
	body := 4
	for _, ep := range eps {
		if len(ep.TCP) > maxAddrLen || len(ep.Unix) > maxAddrLen || len(ep.HostID) > maxAddrLen || len(ep.Shm) > maxAddrLen {
			return nil, fmt.Errorf("wire: endpoint string too long: %+v", ep)
		}
		body += endpointWireSize(ep)
	}
	b := make([]byte, frameHeaderSize, frameHeaderSize+body)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(eps)))
	for _, ep := range eps {
		b = appendEndpoint(b, ep)
	}
	return finishFrame(b, frameWelcome), nil
}

func decodeWelcome(body []byte) ([]endpoint, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("wire: welcome frame truncated")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n > 1<<20 {
		return nil, fmt.Errorf("wire: welcome table of %d entries", n)
	}
	eps := make([]endpoint, 0, n)
	off := 4
	for i := 0; i < n; i++ {
		var ep endpoint
		ep, off = takeEndpoint(body, off)
		if off < 0 {
			return nil, fmt.Errorf("wire: welcome frame truncated at entry %d", i)
		}
		eps = append(eps, ep)
	}
	if off != len(body) {
		return nil, fmt.Errorf("wire: welcome frame length mismatch")
	}
	return eps, nil
}

func encodeReject(reason string) []byte {
	b := make([]byte, frameHeaderSize, frameHeaderSize+len(reason))
	b = append(b, reason...)
	return finishFrame(b, frameReject)
}

// encodeAccept is the pair handshake's confirmation; mapped says the
// acceptor mapped the ring region the dialer's hello named.
func encodeAccept(mapped bool) []byte {
	b := make([]byte, frameHeaderSize, frameHeaderSize+1)
	return finishFrame(append(b, boolByte(mapped)), frameAccept)
}

func decodeAccept(body []byte) (mapped bool, err error) {
	if len(body) != 1 || body[0] > 1 {
		return false, fmt.Errorf("wire: accept frame body %x", body)
	}
	return body[0] == 1, nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// TicketAction tells a gate session what to do with the epoch described by
// a Ticket.
type TicketAction byte

const (
	// ActionRun: connect to the epoch's rendezvous as the given rank and
	// execute.
	ActionRun TicketAction = iota
	// ActionDrain: do not connect; flush local state and report, then wait
	// for the exit ticket.
	ActionDrain
	// ActionExit: the session is released; close and terminate.
	ActionExit
	// ActionAdmit: the gate's immediate reply to a join hello, carrying the
	// member identity assigned to the session; epoch tickets follow.
	ActionAdmit
)

// Ticket is the coordinator's per-epoch instruction to a gate session: the
// epoch number, the member's logical rank (when running), the epoch's total
// rank count and rendezvous address, and the full member identity table
// (Members[l] = physical member id of logical rank l) so every process can
// derive the epoch's task map deterministically.
type Ticket struct {
	Action  TicketAction
	Member  int
	Epoch   int
	Rank    int
	Ranks   int
	Addr    string
	Members []int
	// Retired lists members drained since the previous epoch whose journals
	// are closed and safe to adopt handed-off lineage from.
	Retired []int
}

func encodeTicket(t Ticket) []byte {
	b := make([]byte, frameHeaderSize, frameHeaderSize+27+len(t.Addr)+4*(len(t.Members)+len(t.Retired)))
	b = append(b, byte(t.Action))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Member))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Epoch))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Rank))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Ranks))
	b = appendString(b, t.Addr)
	for _, table := range [][]int{t.Members, t.Retired} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(table)))
		for _, m := range table {
			b = binary.LittleEndian.AppendUint32(b, uint32(m))
		}
	}
	return finishFrame(b, frameTicket)
}

func decodeTicket(body []byte) (Ticket, error) {
	var t Ticket
	if len(body) < 17 {
		return t, fmt.Errorf("wire: ticket frame truncated (%d bytes)", len(body))
	}
	t.Action = TicketAction(body[0])
	t.Member = int(binary.LittleEndian.Uint32(body[1:]))
	t.Epoch = int(binary.LittleEndian.Uint32(body[5:]))
	t.Rank = int(binary.LittleEndian.Uint32(body[9:]))
	t.Ranks = int(binary.LittleEndian.Uint32(body[13:]))
	addr, off := takeString(body, 17)
	if off < 0 {
		return t, fmt.Errorf("wire: ticket frame truncated")
	}
	t.Addr = addr
	for _, table := range []*[]int{&t.Members, &t.Retired} {
		if len(body) < off+4 {
			return t, fmt.Errorf("wire: ticket frame truncated")
		}
		n := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if n > 1<<20 || len(body) < off+4*n {
			return t, fmt.Errorf("wire: ticket member table length mismatch")
		}
		*table = make([]int, n)
		for i := range *table {
			(*table)[i] = int(binary.LittleEndian.Uint32(body[off+4*i:]))
		}
		off += 4 * n
	}
	if off != len(body) {
		return t, fmt.Errorf("wire: ticket frame length mismatch")
	}
	return t, nil
}

// Status is a gate session's report back to the coordinator after acting on
// a ticket: which epoch it finished, whether it succeeded, and a short
// detail string (an error summary, or counters like "replayed=3").
type Status struct {
	Member int
	Epoch  int
	OK     bool
	Detail string
}

func encodeStatus(s Status) []byte {
	b := make([]byte, frameHeaderSize, frameHeaderSize+11+len(s.Detail))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.Member))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.Epoch))
	b = append(b, boolByte(s.OK))
	b = appendString(b, s.Detail)
	return finishFrame(b, frameStatus)
}

func decodeStatus(body []byte) (Status, error) {
	var s Status
	if len(body) < 11 {
		return s, fmt.Errorf("wire: status frame truncated (%d bytes)", len(body))
	}
	if body[8] > 1 {
		return s, fmt.Errorf("wire: status ok byte %d", body[8])
	}
	s.Member = int(binary.LittleEndian.Uint32(body))
	s.Epoch = int(binary.LittleEndian.Uint32(body[4:]))
	s.OK = body[8] == 1
	detail, off := takeString(body, 9)
	if off != len(body) {
		return s, fmt.Errorf("wire: status frame length mismatch")
	}
	s.Detail = detail
	return s, nil
}
