// Package journal is the durable run journal behind checkpoint-free
// restart: an append-only, segmented, CRC32C-framed record log. The MPI
// controller journals every recorded task output through it (via the
// core.LedgerStore interface, see ledgerstore.go), so a killed run —
// including a full-process crash of every rank — resumes by replaying the
// journal and re-executing only the un-journaled frontier. No record is
// ever rewritten in place; correctness rests on the paper's idempotence
// contract: anything the journal lost is simply re-executed.
//
// On-disk format. A journal is a directory of segment files
// ("seg-00000001.wal", "seg-00000002.wal", …). Each segment is a sequence
// of records framed as
//
//	u32  body length (little-endian)
//	u32  CRC32C (Castagnoli) of the body
//	...  body
//
// Appends go to the highest-numbered segment; a segment exceeding
// Options.SegmentBytes is sealed and a new one started. Durability is
// governed by Options.Sync: every record, or group commit — a background
// committer that amortizes one fsync across a bounded window of appends
// and publishes the crash-safe prefix through the Committed watermark.
//
// Crash and corruption rules, applied when a journal is opened:
//
//   - Torn tail: a trailing record whose header or body is incomplete —
//     what a crash between write and fsync leaves behind — is truncated
//     away, and appends continue at the clean tail.
//   - Implausible length: a record whose declared length exceeds
//     Options.MaxRecordBytes or the bytes remaining in the segment cannot
//     be skipped safely; the segment is truncated at that record.
//   - Corrupt record: a fully present record whose CRC32C does not match
//     is skipped (its task will re-execute) and scanning continues at the
//     next record.
//
// Open never fails on a damaged journal — damage only shrinks the set of
// replayable records.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncEveryRecord fsyncs after every append — a record returned from
	// Append survives an immediate process or OS crash. The default.
	SyncEveryRecord SyncPolicy = iota
	// SyncGroupCommit amortizes fsyncs across a commit window: Append
	// returns as soon as the record is written, and a background committer
	// fsyncs when CommitRecords appends have accumulated or CommitInterval
	// has elapsed since the last commit, whichever comes first. The
	// Committed watermark reports how many records are crash-safe; a crash
	// loses at most one commit window, which replay re-executes.
	SyncGroupCommit
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryRecord:
		return "every-record"
	case SyncGroupCommit:
		return "group-commit"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configures a Log. The zero value selects the documented defaults.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that would grow the
	// active segment past it seals the segment first. Zero selects 4 MiB.
	SegmentBytes int
	// MaxRecordBytes bounds a single record body; larger appends fail, and
	// a scanned record declaring more is treated as tail corruption. Zero
	// selects 256 MiB.
	MaxRecordBytes int
	// Sync is the fsync policy. The zero value is SyncEveryRecord.
	Sync SyncPolicy
	// CommitInterval bounds how long a record appended under
	// SyncGroupCommit may wait for its fsync. Zero selects 2ms. Ignored by
	// the other policies.
	CommitInterval time.Duration
	// CommitRecords is the append count that triggers an early group
	// commit before the interval elapses. Zero selects 64. Ignored by the
	// other policies.
	CommitRecords int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 256 << 20
	}
	if o.CommitInterval <= 0 {
		o.CommitInterval = 2 * time.Millisecond
	}
	if o.CommitRecords <= 0 {
		o.CommitRecords = 64
	}
	return o
}

// recHeaderSize is the per-record framing overhead: u32 length + u32 CRC32C.
const recHeaderSize = 8

// castagnoli is the CRC32C polynomial table (the same checksum the wire
// frames use, hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord marks a record whose body does not match its CRC32C.
var ErrCorruptRecord = errors.New("journal: corrupt record")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("journal: log closed")

// Ref locates one record inside a Log: the segment ordinal, the body's byte
// offset within it, and the body length. Refs stay valid for the lifetime
// of the Log that returned them (segments are never compacted in place).
type Ref struct {
	seg int   // index into Log.segs
	off int64 // byte offset of the record body
	n   int   // body length
}

// Size returns the record's body length in bytes.
func (r Ref) Size() int { return r.n }

// segment is one on-disk file of the log.
type segment struct {
	path string
	f    *os.File
	size int64 // valid bytes (scan-truncated tail excluded)
}

// Stats describes a log's health and volume.
type Stats struct {
	// Records is the number of valid records: scanned at Open plus appended
	// since.
	Records int
	// Segments is the number of segment files.
	Segments int
	// Bytes is the total valid payload across all segments (bodies only).
	Bytes int64
	// CorruptSkipped counts records dropped at Open for CRC mismatch.
	CorruptSkipped int
	// TornBytes counts bytes truncated from segment tails at Open.
	TornBytes int64
	// Committed is the crash-safe watermark: how many of Records were
	// covered by an fsync (see Log.Committed).
	Committed int
}

// Log is an append-only segmented record log. It is safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	opt       Options
	dir       string
	segs      []*segment
	refs      []Ref // valid records in append order (scan + appends)
	stats     Stats
	dirty     bool // unsynced appends on the active segment
	closed    bool
	committed int   // records covered by an fsync (crash-safe watermark)
	syncErr   error // sticky background-commit failure (group commit only)

	// Group-commit machinery (nil under the other policies).
	commitWake chan struct{} // capacity 1: poked when CommitRecords accumulate
	commitStop chan struct{}
	commitDone chan struct{}
	stopOnce   sync.Once
}

// Open opens (or creates) the journal at dir, scanning existing segments,
// truncating torn tails and skipping corrupt records per the package rules.
// The returned log appends to the clean tail of the highest segment.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opt: opt, dir: dir}
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
		seg := &segment{path: path, f: f}
		l.segs = append(l.segs, seg)
		if err := l.scanSegment(len(l.segs) - 1); err != nil {
			l.Close()
			return nil, err
		}
	}
	if len(l.segs) == 0 {
		if err := l.addSegment(); err != nil {
			l.Close()
			return nil, err
		}
	}
	l.stats.Segments = len(l.segs)
	// Records that survived the open scan are on stable storage by
	// definition — the watermark starts at the full scanned count.
	l.committed = l.stats.Records
	if opt.Sync == SyncGroupCommit {
		l.commitWake = make(chan struct{}, 1)
		l.commitStop = make(chan struct{})
		l.commitDone = make(chan struct{})
		go l.commitLoop()
	}
	return l, nil
}

// segmentNames lists dir's segment files in ordinal order.
func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.wal", &n); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded ordinals sort lexically
	return names, nil
}

// scanSegment validates every record of segment i, indexes the valid ones,
// truncates the torn tail and sets the segment's logical size.
func (l *Log) scanSegment(i int) error {
	seg := l.segs[i]
	info, err := seg.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	fileSize := info.Size()
	var off int64
	var hdr [recHeaderSize]byte
	for off < fileSize {
		if fileSize-off < recHeaderSize {
			break // torn header
		}
		if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
			break
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > int64(l.opt.MaxRecordBytes) || off+recHeaderSize+n > fileSize {
			break // implausible length or torn body: cannot skip safely
		}
		body := make([]byte, n)
		if _, err := seg.f.ReadAt(body, off+recHeaderSize); err != nil {
			break
		}
		if crc32.Checksum(body, castagnoli) == want {
			l.refs = append(l.refs, Ref{seg: i, off: off + recHeaderSize, n: int(n)})
			l.stats.Records++
			l.stats.Bytes += n
		} else {
			l.stats.CorruptSkipped++
		}
		off += recHeaderSize + n
	}
	if off < fileSize {
		l.stats.TornBytes += fileSize - off
		if err := seg.f.Truncate(off); err != nil {
			return fmt.Errorf("journal: truncating torn tail of %s: %w", seg.path, err)
		}
	}
	seg.size = off
	return nil
}

// addSegment seals nothing and starts segment len(segs)+1.
func (l *Log) addSegment() error {
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%08d.wal", len(l.segs)+1))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.segs = append(l.segs, &segment{path: path, f: f})
	l.stats.Segments = len(l.segs)
	syncDir(l.dir) // make the new file name durable
	return nil
}

// Append frames body with its length and CRC32C and appends it to the
// active segment, rotating first when the segment is full, then fsyncs per
// the sync policy. Under SyncGroupCommit it returns as soon as the record
// is written — durability arrives with the next group commit, observable
// through Committed — and surfaces any earlier background fsync failure.
// The returned Ref reads the record back. body is not retained.
func (l *Log) Append(body []byte) (Ref, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Ref{}, ErrClosed
	}
	if l.syncErr != nil {
		// A failed group commit leaves the durability of every later record
		// unknowable; refuse further appends instead of lying.
		return Ref{}, l.syncErr
	}
	if len(body) > l.opt.MaxRecordBytes {
		return Ref{}, fmt.Errorf("journal: record of %d bytes exceeds MaxRecordBytes %d", len(body), l.opt.MaxRecordBytes)
	}
	active := l.segs[len(l.segs)-1]
	if active.size > 0 && active.size+recHeaderSize+int64(len(body)) > int64(l.opt.SegmentBytes) {
		if err := l.rotateLocked(); err != nil {
			return Ref{}, err
		}
		active = l.segs[len(l.segs)-1]
	}
	// One contiguous write keeps the torn-write window to a single record.
	buf := make([]byte, recHeaderSize+len(body))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(body, castagnoli))
	copy(buf[recHeaderSize:], body)
	if _, err := active.f.WriteAt(buf, active.size); err != nil {
		return Ref{}, fmt.Errorf("journal: append: %w", err)
	}
	ref := Ref{seg: len(l.segs) - 1, off: active.size + recHeaderSize, n: len(body)}
	active.size += int64(len(buf))
	l.refs = append(l.refs, ref)
	l.stats.Records++
	l.stats.Bytes += int64(len(body))
	l.dirty = true
	switch l.opt.Sync {
	case SyncEveryRecord:
		if err := active.f.Sync(); err != nil {
			return Ref{}, fmt.Errorf("journal: fsync: %w", err)
		}
		l.dirty = false
		l.committed = l.stats.Records
	case SyncGroupCommit:
		if l.stats.Records-l.committed >= l.opt.CommitRecords {
			select {
			case l.commitWake <- struct{}{}:
			default:
			}
		}
	}
	return ref, nil
}

// commitLoop is the group committer: it fsyncs the active segment whenever
// the commit interval elapses with unsynced appends, or sooner when
// CommitRecords accumulate. An fsync failure is recorded sticky and stops
// the loop — every subsequent Append reports it.
func (l *Log) commitLoop() {
	defer close(l.commitDone)
	t := time.NewTicker(l.opt.CommitInterval)
	defer t.Stop()
	for {
		select {
		case <-l.commitStop:
			return
		case <-t.C:
		case <-l.commitWake:
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		err := l.syncLocked()
		l.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// syncLocked fsyncs the active segment if it has unsynced appends,
// advancing the committed watermark. A failure under group commit is
// recorded sticky.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.segs[len(l.segs)-1].f.Sync(); err != nil {
		err = fmt.Errorf("journal: fsync: %w", err)
		if l.opt.Sync == SyncGroupCommit {
			l.syncErr = err
		}
		return err
	}
	l.dirty = false
	l.committed = l.stats.Records
	return nil
}

// Committed returns the crash-safe watermark: the number of records (in
// append order) covered by an fsync. Everything past it is written but may
// be lost to a crash — the replay layer re-executes it. Under
// SyncEveryRecord the watermark always equals Stats().Records; under
// SyncGroupCommit it trails by at most one commit window.
func (l *Log) Committed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

// rotateLocked seals the active segment, fsyncing it, and starts the next
// one.
func (l *Log) rotateLocked() error {
	active := l.segs[len(l.segs)-1]
	if err := active.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync on rotate: %w", err)
	}
	l.dirty = false
	l.committed = l.stats.Records
	return l.addSegment()
}

// ReadAt returns the body of a previously appended or scanned record,
// re-verifying its CRC32C so latent on-disk corruption surfaces as a typed
// ErrCorruptRecord instead of poisoned payload bytes.
func (l *Log) ReadAt(ref Ref) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readAtLocked(ref)
}

func (l *Log) readAtLocked(ref Ref) ([]byte, error) {
	if l.closed {
		return nil, ErrClosed
	}
	if ref.seg < 0 || ref.seg >= len(l.segs) {
		return nil, fmt.Errorf("journal: ref names segment %d of %d", ref.seg, len(l.segs))
	}
	var hdr [recHeaderSize]byte
	seg := l.segs[ref.seg]
	if _, err := seg.f.ReadAt(hdr[:], ref.off-recHeaderSize); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	body := make([]byte, ref.n)
	if _, err := seg.f.ReadAt(body, ref.off); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: segment %d offset %d", ErrCorruptRecord, ref.seg, ref.off)
	}
	return body, nil
}

// Scan calls fn for every valid record in append order (scanned records
// first, then records appended this session). A record that fails its
// re-read CRC is skipped — the caller sees only intact bodies. fn must not
// retain body.
func (l *Log) Scan(fn func(ref Ref, body []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for _, ref := range l.refs {
		body, err := l.readAtLocked(ref)
		if errors.Is(err, ErrCorruptRecord) {
			l.stats.CorruptSkipped++
			continue
		}
		if err != nil {
			return err
		}
		if err := fn(ref, body); err != nil {
			return err
		}
	}
	return nil
}

// Sync fsyncs the active segment if it has unsynced appends, advancing the
// committed watermark. It surfaces a sticky background-commit failure.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	return l.syncLocked()
}

// stopCommitter shuts the group committer down (idempotent; no-op for the
// other policies) and waits for it to exit, so Close never races a
// background fsync.
func (l *Log) stopCommitter() {
	if l.commitStop == nil {
		return
	}
	l.stopOnce.Do(func() { close(l.commitStop) })
	<-l.commitDone
}

// Close syncs and closes every segment. The log is unusable afterwards.
func (l *Log) Close() error {
	l.stopCommitter()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	for i, seg := range l.segs {
		if seg.f == nil {
			continue
		}
		if l.dirty && i == len(l.segs)-1 {
			if err := seg.f.Sync(); err != nil && first == nil {
				first = err
			} else if err == nil {
				l.dirty = false
				l.committed = l.stats.Records
			}
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if first == nil && l.syncErr != nil {
		first = l.syncErr
	}
	return first
}

// Stats returns the log's current counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Committed = l.committed
	return s
}

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// syncDir fsyncs a directory so a freshly created file's name survives a
// crash. Best effort: not all platforms support directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
