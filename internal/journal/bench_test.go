package journal

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkAppend measures the append path under each fsync policy — the
// per-record side of the repository benchmark's journal.append_us /
// journal.overhead_x (make bench) and the CI perf-smoke sweep. Group
// commit's value is visible here: appends return at write speed while a
// background committer amortizes the fsyncs, far below the per-record
// fsync floor.
func BenchmarkAppend(b *testing.B) {
	policies := []SyncPolicy{SyncEveryRecord, SyncGroupCommit}
	body := make([]byte, 256)
	for _, p := range policies {
		b.Run(fmt.Sprintf("sync=%s", p), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Sync: p})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(body); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

// BenchmarkGroupCommitWatermark measures the full durability round trip
// under group commit: append, then wait for the committer to advance the
// watermark past the record. A tight commit window keeps the wait bounded;
// the result approximates the durability latency a caller observing
// Committed would see.
func BenchmarkGroupCommitWatermark(b *testing.B) {
	l, err := Open(b.TempDir(), Options{
		Sync:           SyncGroupCommit,
		CommitInterval: 500 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	body := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(body); err != nil {
			b.Fatal(err)
		}
		for l.Committed() < i+1 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.StopTimer()
}
