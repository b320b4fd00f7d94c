package mpi

import (
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// initErr builds a controller with the given options and returns the error
// Initialize surfaces — where option validation lands.
func initErr(t *testing.T, opts ...Option) error {
	t.Helper()
	g, _ := graphs.NewReduction(4, 2)
	c := New(opts...)
	return c.Initialize(g, core.NewModuloMap(2, g.Size()))
}

func TestOptionValidationCommitWindow(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval time.Duration
		records  int
	}{
		{"zero_interval", 0, 8},
		{"zero_records", time.Millisecond, 0},
		{"negative_interval", -time.Millisecond, 8},
		{"negative_records", time.Millisecond, -1},
	} {
		if err := initErr(t, WithJournalGroupCommit(tc.interval, tc.records)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := initErr(t, WithJournalGroupCommit(time.Millisecond, 8)); err != nil {
		t.Fatalf("positive window rejected: %v", err)
	}
}
