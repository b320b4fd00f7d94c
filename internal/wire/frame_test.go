package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
)

// frameReader wraps encoded frame bytes in the reader the data path uses.
func frameReader(b []byte) *bufio.Reader {
	return bufio.NewReaderSize(bytes.NewReader(b), 64<<10)
}

// decodeFabric is a minimal fabric for exercising readOne without a mesh.
func decodeFabric() (*Fabric, *peer) {
	return &Fabric{opt: Options{Rank: 1, Ranks: 2}}, &peer{rank: 0}
}

func TestControlFrameRoundTrip(t *testing.T) {
	for _, typ := range []byte{frameHeartbeat, frameGoodbye, frameDoorbell} {
		enc := controlFrame(typ)
		if len(enc) != frameHeaderSize {
			t.Fatalf("control frame of %d bytes", len(enc))
		}
		gtyp, n, crc, err := readFrame(bytes.NewReader(enc))
		if err != nil || gtyp != typ || n != 0 {
			t.Fatalf("type %d: decoded typ=%d n=%d err=%v", typ, gtyp, n, err)
		}
		if err := verifyBody(gtyp, nil, crc); err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	payload := []byte("the payload bytes")
	enc := encodeDataFrame(nil, 3, 9, 11, 42, 7, payload)
	if len(enc) != dataFrameSize(len(payload)) {
		t.Fatalf("encoded %d bytes, dataFrameSize says %d", len(enc), dataFrameSize(len(payload)))
	}
	f, p := decodeFabric()
	m, typ, err := f.readOne(p, frameReader(enc))
	if err != nil || typ != frameData {
		t.Fatalf("readOne: typ=%d err=%v", typ, err)
	}
	if m.Src != 3 || m.Dest != 9 || m.Run != 11 || m.Seq != 42 || m.Attempt != 7 {
		t.Fatalf("decoded header %d->%d run=%d seq=%d attempt=%d", m.Src, m.Dest, m.Run, m.Seq, m.Attempt)
	}
	if !bytes.Equal(m.Payload.Data, payload) {
		t.Fatalf("payload %q", m.Payload.Data)
	}
	m.Payload.Release()
}

func TestCorruptDataFrameTyped(t *testing.T) {
	// A flipped bit anywhere after the length prefix must surface as a
	// typed ErrCorruptFrame, not as valid payload.
	for _, off := range []int{5, frameHeaderSize, frameHeaderSize + dataHeaderSize, frameHeaderSize + dataHeaderSize + 3} {
		enc := encodeDataFrame(nil, 1, 2, 0, 3, 4, []byte("precious"))
		enc[off] ^= 0x01
		f, p := decodeFabric()
		_, _, err := f.readOne(p, frameReader(enc))
		if off == 5 {
			// Flipping the stored CRC itself also fails the compare.
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("flip at %d (crc field): err = %v", off, err)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at %d: err = %v, want ErrCorruptFrame", off, err)
		}
	}
}

func TestCorruptControlFrameTyped(t *testing.T) {
	enc := controlFrame(frameHeartbeat)
	enc[6] ^= 0x80 // damage the CRC field of an empty-body frame
	f, p := decodeFabric()
	if _, _, err := f.readOne(p, frameReader(enc)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt heartbeat: err = %v, want ErrCorruptFrame", err)
	}
}

func TestTruncatedLengthPrefix(t *testing.T) {
	// Regression: a header cut anywhere inside its 9 bytes is an EOF-class
	// error, never a panic or a bogus frame.
	full := encodeDataFrame(nil, 1, 2, 0, 3, 4, []byte("x"))
	for cut := 0; cut < frameHeaderSize; cut++ {
		_, _, _, err := readFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("header truncated to %d bytes decoded successfully", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("header truncated to %d bytes: err = %v, want EOF-class", cut, err)
		}
	}
}

func TestOversizedDeclaredLength(t *testing.T) {
	// Regression: a hostile length prefix is rejected from the header alone
	// — before any body allocation.
	var hdr [frameHeaderSize]byte
	for _, l := range []uint32{0, maxFrameSize + 1, 1 << 31, 0xFFFFFFFF} {
		binary.LittleEndian.PutUint32(hdr[0:4], l)
		hdr[4] = frameData
		if _, _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
			t.Fatalf("declared length %d accepted", l)
		}
	}
	// The parameterized limit rejects lengths the production ceiling allows.
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<20)
	if _, _, _, err := readFrameLimit(bytes.NewReader(hdr[:]), hdr[:], 1<<10); err == nil {
		t.Fatal("readFrameLimit ignored its ceiling")
	}
}

func TestHandshakeFramesChecksummed(t *testing.T) {
	h := hello{Rank: 2, Ranks: 4, Epoch: 1, Tier: TierAuto,
		Endpoint: endpoint{TCP: "127.0.0.1:9999", Unix: "/tmp/r2.sock", HostID: "host-a/boot"},
		Ring:     "/dev/shm/bfshm-1/ring-2.shm", RingBytes: 1 << 20}
	enc := encodeHello(h)
	typ, n, crc, err := readFrame(bytes.NewReader(enc))
	if err != nil || typ != frameHello {
		t.Fatalf("hello header: typ=%d err=%v", typ, err)
	}
	body := enc[frameHeaderSize : frameHeaderSize+n]
	if err := verifyBody(typ, body, crc); err != nil {
		t.Fatal(err)
	}
	got, err := decodeHello(body)
	if err != nil || got != h {
		t.Fatalf("decodeHello = %+v, %v", got, err)
	}
	// A corrupted hello fails verification.
	enc[frameHeaderSize+2] ^= 0x04
	if err := verifyBody(typ, enc[frameHeaderSize:frameHeaderSize+n], crc); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt hello: err = %v", err)
	}
}

// FuzzFrameDecode drives the frame decoder with arbitrary byte streams: it
// must never panic, never allocate beyond the declared limit, and only
// deliver bodies that pass their CRC.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(controlFrame(frameHeartbeat))
	f.Add(encodeDataFrame(nil, 1, 2, 0, 3, 4, []byte("seed payload")))
	f.Add(encodeHello(hello{Rank: 1, Ranks: 2, Endpoint: endpoint{TCP: "a:1", HostID: "h"}}))
	w, _ := encodeWelcome([]endpoint{{TCP: "x:1", HostID: "h"}, {TCP: "y:2", Unix: "/tmp/y.sock", HostID: "h"}})
	f.Add(w)
	// Truncated header seed.
	f.Add([]byte{5, 0, 0})
	// Oversized declared length seed.
	over := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(over, 0xFFFFFFF0)
	f.Add(over)
	// Valid header, corrupt body seed.
	bad := encodeDataFrame(nil, 1, 2, 0, 3, 4, []byte("will corrupt"))
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 16
		r := bytes.NewReader(data)
		var hdr [frameHeaderSize]byte
		for {
			typ, n, crc, err := readFrameLimit(r, hdr[:], max)
			if err != nil {
				return
			}
			if n < 0 || n >= max {
				t.Fatalf("readFrameLimit returned body length %d past limit %d", n, max)
			}
			body := make([]byte, n)
			if _, err := io.ReadFull(r, body); err != nil {
				return
			}
			if err := verifyBody(typ, body, crc); err != nil {
				if !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("verifyBody returned untyped error %v", err)
				}
				return
			}
			// A body that passed its CRC must decode without panicking.
			switch typ {
			case frameHello:
				decodeHello(body)
			case frameWelcome:
				decodeWelcome(body)
			case frameData:
				if n >= dataHeaderSize {
					_ = core.TaskId(binary.LittleEndian.Uint64(body))
				}
			}
		}
	})
}

// FuzzHandshakeDecode drives the five handshake body decoders directly,
// chosen by frame type, without the CRC gate FuzzFrameDecode has to pass
// first. A decoder must never panic, and a body it accepts must re-encode
// to the same bytes, so no two peers can read one body two ways.
func FuzzHandshakeDecode(f *testing.F) {
	reencode := map[byte]func([]byte) ([]byte, error){
		frameHello: func(b []byte) ([]byte, error) {
			h, err := decodeHello(b)
			if err != nil {
				return nil, err
			}
			return encodeHello(h), nil
		},
		frameWelcome: func(b []byte) ([]byte, error) {
			eps, err := decodeWelcome(b)
			if err != nil {
				return nil, err
			}
			return encodeWelcome(eps)
		},
		frameAccept: func(b []byte) ([]byte, error) {
			mapped, err := decodeAccept(b)
			if err != nil {
				return nil, err
			}
			return encodeAccept(mapped), nil
		},
		frameTicket: func(b []byte) ([]byte, error) {
			tk, err := decodeTicket(b)
			if err != nil {
				return nil, err
			}
			return encodeTicket(tk), nil
		},
		frameStatus: func(b []byte) ([]byte, error) {
			st, err := decodeStatus(b)
			if err != nil {
				return nil, err
			}
			return encodeStatus(st), nil
		},
	}
	body := func(frame []byte) []byte { return frame[frameHeaderSize:] }
	f.Add(frameHello, body(encodeHello(hello{Rank: 2, Ranks: 4, Epoch: 1, Tier: TierShm, Kind: KindJoin,
		Fingerprint: core.Fingerprint{7}, Endpoint: endpoint{TCP: "a:1", Unix: "/tmp/a.sock", HostID: "h", Shm: "/dev/shm/a", ShmGen: 1}})))
	w, _ := encodeWelcome([]endpoint{{TCP: "x:1", HostID: "h"}, {TCP: "y:2", Unix: "/tmp/y.sock", HostID: "h", Shm: "/dev/shm/y", ShmGen: 3}})
	f.Add(frameWelcome, body(w))
	f.Add(frameHello, body(encodeHello(hello{Rank: 1, Ranks: 2, Epoch: 3, Tier: TierAuto, Fingerprint: core.Fingerprint{7},
		Endpoint: endpoint{TCP: "a:1", Unix: "/tmp/a.sock", HostID: "h", Shm: "/dev/shm/a", ShmGen: 3},
		Ring:     "/dev/shm/bfshm-1/ring-1.shm", RingBytes: 1 << 20})))
	f.Add(frameAccept, body(encodeAccept(true)))
	f.Add(frameAccept, body(encodeAccept(false)))
	f.Add(frameTicket, body(encodeTicket(Ticket{Action: ActionRun, Member: 5, Epoch: 2, Rank: 1, Ranks: 3,
		Addr: "127.0.0.1:7000", Members: []int{0, 5, 2}, Retired: []int{4}})))
	f.Add(frameStatus, body(encodeStatus(Status{Member: 5, Epoch: 2, OK: true, Detail: "replayed=3"})))
	f.Add(frameStatus, body(encodeStatus(Status{Member: 1, Epoch: 9, Detail: "boom"})))

	f.Fuzz(func(t *testing.T, kind byte, b []byte) {
		re, ok := reencode[kind]
		if !ok {
			return
		}
		enc, err := re(b)
		if err != nil {
			return
		}
		if got := enc[frameHeaderSize:]; !bytes.Equal(got, b) {
			t.Fatalf("frame type %d: decoded %x, re-encoded %x", kind, b, got)
		}
	})
}
