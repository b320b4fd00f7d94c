package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// reopen closes l and opens the same directory fresh.
func reopen(t *testing.T, l *Log, opt Options) *Log {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	nl, err := Open(l.Dir(), opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return nl
}

func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var bodies [][]byte
	err := l.Scan(func(_ Ref, body []byte) error {
		bodies = append(bodies, append([]byte(nil), body...))
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return bodies
}

func TestRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var want [][]byte
	var refs []Ref
	for i := 0; i < 100; i++ {
		body := bytes.Repeat([]byte{byte(i)}, i*7%256+1)
		ref, err := l.Append(body)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, body)
		refs = append(refs, ref)
	}
	for i, ref := range refs {
		got, err := l.ReadAt(ref)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	l = reopen(t, l, Options{})
	defer l.Close()
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("reopened scan found %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("reopened record %d mismatch", i)
		}
	}
	st := l.Stats()
	if st.Records != 100 || st.CorruptSkipped != 0 || st.TornBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRotation(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncEveryRecord, SyncGroupCommit} {
		t.Run(pol.String(), func(t *testing.T) { testRotation(t, pol) })
	}
}

func testRotation(t *testing.T, pol SyncPolicy) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: 256, Sync: pol}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{0xAB}, 100)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(body); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) < 2 {
		t.Fatalf("expected multiple segment files, got %d", len(ents))
	}
	l = reopen(t, l, opt)
	defer l.Close()
	if got := collect(t, l); len(got) != n {
		t.Fatalf("after rotation reopen: %d records, want %d", len(got), n)
	}
	// Appends continue in the highest segment after reopen.
	if _, err := l.Append(body); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); len(got) != n+1 {
		t.Fatalf("post-reopen append lost: %d records", len(got))
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, recHeaderSize, recHeaderSize + 5} {
		t.Run(fmt.Sprintf("keep%dBytes", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := l.Append([]byte{byte(i), 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
					t.Fatal(err)
				}
			}
			// Simulate a crash mid-write: keep only `cut` bytes of a 4th record.
			full := l.segs[0].size
			rec := make([]byte, recHeaderSize+10)
			binary.LittleEndian.PutUint32(rec[0:4], 10)
			binary.LittleEndian.PutUint32(rec[4:8], 0xdeadbeef)
			if _, err := l.segs[0].f.WriteAt(rec[:cut], full); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			nl, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer nl.Close()
			if got := collect(t, nl); len(got) != 3 {
				t.Fatalf("torn tail: %d records, want 3", len(got))
			}
			st := nl.Stats()
			if st.TornBytes != int64(cut) {
				t.Fatalf("TornBytes = %d, want %d", st.TornBytes, cut)
			}
			// The tail is clean: new appends round-trip.
			if _, err := nl.Append([]byte("after-truncate")); err != nil {
				t.Fatal(err)
			}
			if got := collect(t, nl); len(got) != 4 || !bytes.Equal(got[3], []byte("after-truncate")) {
				t.Fatalf("append after truncate: got %d records", len(got))
			}
		})
	}
}

func TestCorruptRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	for i := 0; i < 5; i++ {
		ref, err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 16))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	// Flip a bit in the body of record 2.
	if _, err := l.segs[0].f.WriteAt([]byte{'X'}, refs[2].off+4); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	nl, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with corrupt record: %v", err)
	}
	defer nl.Close()
	got := collect(t, nl)
	if len(got) != 4 {
		t.Fatalf("corrupt skip: %d records, want 4", len(got))
	}
	for _, b := range got {
		if b[0] == 'c' {
			t.Fatal("corrupt record was returned by Scan")
		}
	}
	if st := nl.Stats(); st.CorruptSkipped != 1 {
		t.Fatalf("CorruptSkipped = %d, want 1", st.CorruptSkipped)
	}
	// Records after the corrupt one survive (skip, not truncate).
	if !bytes.Equal(got[3], bytes.Repeat([]byte{'e'}, 16)) {
		t.Fatal("record after the corrupt one was lost")
	}
}

func TestReadAtDetectsLatentCorruption(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ref, err := l.Append([]byte("precious bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.segs[0].f.WriteAt([]byte{0xFF}, ref.off); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadAt(ref); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("ReadAt on rotted record: err = %v, want ErrCorruptRecord", err)
	}
}

func TestOversizedDeclaredLengthTruncates(t *testing.T) {
	dir := t.TempDir()
	opt := Options{MaxRecordBytes: 1 << 20}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	// A header declaring 3 GiB must not cause a 3 GiB allocation or a skip
	// past the end — the segment is truncated at the bad record.
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 3<<30)
	if _, err := l.segs[0].f.WriteAt(hdr[:], l.segs[0].size); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	nl, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("open with oversized header: %v", err)
	}
	defer nl.Close()
	if got := collect(t, nl); len(got) != 1 || !bytes.Equal(got[0], []byte("good")) {
		t.Fatalf("oversized header: %d records survived", len(got))
	}
	if st := nl.Stats(); st.TornBytes != recHeaderSize {
		t.Fatalf("TornBytes = %d, want %d", st.TornBytes, recHeaderSize)
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	l, err := Open(t.TempDir(), Options{MaxRecordBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, 65)); err == nil {
		t.Fatal("oversized append succeeded")
	}
	if _, err := l.Append(make([]byte, 64)); err != nil {
		t.Fatalf("boundary append failed: %v", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncEveryRecord, SyncGroupCommit} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: pol, SegmentBytes: 128})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			l = reopen(t, l, Options{Sync: pol})
			defer l.Close()
			if got := collect(t, l); len(got) != 10 {
				t.Fatalf("%v: %d records after reopen, want 10", pol, len(got))
			}
		})
	}
}

func TestClosedLogErrors(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := l.Append([]byte("x"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := l.Append([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if _, err := l.ReadAt(ref); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := l.Scan(func(Ref, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan after close: %v", err)
	}
}

func TestEmptyDirAndIgnoredFiles(t *testing.T) {
	dir := t.TempDir()
	// Foreign files in the journal directory are ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("fresh journal scanned %d records", len(got))
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("fresh journal has %d segments", st.Segments)
	}
}

func TestConcurrentAppend(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 1024, Sync: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, per = 8, 50
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				body := make([]byte, 16)
				binary.LittleEndian.PutUint64(body, uint64(w))
				binary.LittleEndian.PutUint64(body[8:], uint64(i))
				if _, err := l.Append(body); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, l); len(got) != writers*per {
		t.Fatalf("concurrent appends: %d records, want %d", len(got), writers*per)
	}
}
