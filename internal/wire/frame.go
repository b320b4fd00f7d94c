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
	minEndpointSize = 16        // four empty strings' u16 lengths + u64 generation
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

func appendEndpoint(b []byte, ep endpoint) []byte {
	b = appendString(b, ep.TCP)
	b = appendString(b, ep.Unix)
	b = appendString(b, ep.HostID)
	b = appendString(b, ep.Shm)
	return binary.LittleEndian.AppendUint64(b, ep.ShmGen)
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

func encodeHello(h hello) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, frameHeaderSize), uint32(h.Rank))
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
	r := reader{b: body}
	h := hello{Rank: r.u32(), Ranks: r.u32(), Epoch: r.u32(), Tier: Tier(r.u8()), Kind: HelloKind(r.u8())}
	copy(h.Fingerprint[:], r.take(fingerprintSize))
	h.Endpoint = r.endpoint()
	h.Ring, h.RingBytes = r.str(), r.u64()
	return h, r.end("hello")
}

func encodeWelcome(eps []endpoint) ([]byte, error) {
	b := binary.LittleEndian.AppendUint32(make([]byte, frameHeaderSize), uint32(len(eps)))
	for _, ep := range eps {
		if len(ep.TCP) > maxAddrLen || len(ep.Unix) > maxAddrLen || len(ep.HostID) > maxAddrLen || len(ep.Shm) > maxAddrLen {
			return nil, fmt.Errorf("wire: endpoint string too long: %+v", ep)
		}
		b = appendEndpoint(b, ep)
	}
	return finishFrame(b, frameWelcome), nil
}

func decodeWelcome(body []byte) ([]endpoint, error) {
	r := reader{b: body}
	eps := make([]endpoint, r.count(minEndpointSize))
	for i := range eps {
		eps[i] = r.endpoint()
	}
	if err := r.end("welcome"); err != nil {
		return nil, err
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
	r := reader{b: body}
	mapped = r.flag()
	return mapped, r.end("accept")
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
	r := reader{b: body}
	t := Ticket{Action: TicketAction(r.u8()), Member: r.u32(), Epoch: r.u32(), Rank: r.u32(), Ranks: r.u32(), Addr: r.str()}
	t.Members, t.Retired = r.ints(), r.ints()
	return t, r.end("ticket")
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
	r := reader{b: body}
	st := Status{Member: r.u32(), Epoch: r.u32(), OK: r.flag(), Detail: r.str()}
	return st, r.end("status")
}

// reader decodes one control-frame body field by field. Its error is
// sticky: after the first field that does not fit, every read yields zero
// and end reports that first failure, so a decoder reads all its fields
// and checks once.
type reader struct {
	b   []byte
	err error
}

// fail records the body's first failure.
func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes the next n bytes. When fewer are left it fails the body
// and, from then on, yields zeros.
func (r *reader) take(n int) []byte {
	if len(r.b) < n {
		r.fail(errors.New("truncated"))
		r.b = nil
		return make([]byte, n)
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *reader) u8() byte    { return r.take(1)[0] }
func (r *reader) u32() int    { return int(binary.LittleEndian.Uint32(r.take(4))) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// str is a u16-length-prefixed string.
func (r *reader) str() string { return string(r.take(int(binary.LittleEndian.Uint16(r.take(2))))) }

// flag is a u8 that must be 0 or 1.
func (r *reader) flag() bool {
	v := r.u8()
	if v > 1 {
		r.fail(fmt.Errorf("flag byte %d", v))
	}
	return v == 1
}

// count is a u32 table length, bounded by the body: a table of more
// entries than the rest of the body holds at min bytes each fails here,
// before anything is allocated for it.
func (r *reader) count(min int) int {
	n := r.u32()
	if n > len(r.b)/min {
		r.fail(fmt.Errorf("table of %d entries in %d bytes", n, len(r.b)))
		return 0
	}
	return n
}

func (r *reader) ints() []int {
	v := make([]int, r.count(4))
	for i := range v {
		v[i] = r.u32()
	}
	return v
}

func (r *reader) endpoint() endpoint {
	return endpoint{TCP: r.str(), Unix: r.str(), HostID: r.str(), Shm: r.str(), ShmGen: r.u64()}
}

// end closes the body: it reports the first failed read, or the bytes no
// field consumed.
func (r *reader) end(frame string) error {
	if len(r.b) != 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.b)))
	}
	if r.err != nil {
		return fmt.Errorf("wire: %s frame: %w", frame, r.err)
	}
	return nil
}
