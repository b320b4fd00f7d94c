package usecase

import (
	"bytes"
	"errors"
	"testing"

	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/register"
)

// TestCasesMatchReferenceOnMPI runs every catalog case on the MPI
// controller with the catalog's own placement over 3 ranks: the sinks must
// be byte-identical to the serial Reference and pass the paper-level check.
func TestCasesMatchReferenceOnMPI(t *testing.T) {
	for _, name := range []string{"mergetree", "render", "register", "register-iter"} {
		t.Run(name, func(t *testing.T) {
			ref, err := Build(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Reference(ref)
			if err != nil {
				t.Fatal(err)
			}

			c, err := Build(name, nil) // a run consumes its inputs: build again
			if err != nil {
				t.Fatal(err)
			}
			ctrl := mpi.New()
			if err := ctrl.Initialize(c.Graph, c.Map(3)); err != nil {
				t.Fatal(err)
			}
			if err := c.Register(ctrl); err != nil {
				t.Fatal(err)
			}
			got, err := ctrl.Run(c.Initial)
			if err != nil {
				t.Fatal(err)
			}

			if len(got) != len(want) {
				t.Fatalf("%d sink tasks, reference has %d", len(got), len(want))
			}
			for id, ps := range want {
				if len(got[id]) != len(ps) {
					t.Fatalf("sink %d: %d payloads, reference has %d", id, len(got[id]), len(ps))
				}
				for slot, p := range ps {
					w, _ := p.Wire()
					g, err := got[id][slot].Wire()
					if err != nil || !bytes.Equal(g, w) {
						t.Errorf("sink %d slot %d differs from the serial reference (err %v)", id, slot, err)
					}
				}
			}
			summary, ok, err := c.Check(got)
			if err != nil || !ok {
				t.Errorf("check: %q ok=%v err=%v", summary, ok, err)
			}
		})
	}
}

func TestBuildRejectsUnknownCase(t *testing.T) {
	if _, err := Build("isosurface", nil); err == nil {
		t.Error("Build accepted a case the catalog does not hold")
	}
}

// TestCheckFlagsWrongSinks feeds each check the sinks of a differently
// sized run: it must report not-ok or an error, never ok.
func TestCheckFlagsWrongSinks(t *testing.T) {
	small, err := Build("register", Params{"grid": 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Reference(small)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build("register", nil)
	if err != nil {
		t.Fatal(err)
	}
	if summary, ok, err := full.Check(out); ok && err == nil {
		t.Errorf("3x3 check accepted 2x2 sinks: %q", summary)
	}
}

// TestRegisterGridBound: a registration grid past register.MaxGrid is
// refused with the typed error before any tile is generated.
func TestRegisterGridBound(t *testing.T) {
	var ce *register.ConfigError
	for _, name := range []string{"register", "register-iter"} {
		if _, err := Build(name, Params{"grid": register.MaxGrid + 1}); !errors.As(err, &ce) {
			t.Errorf("%s with grid %d: %v, want a *register.ConfigError", name, register.MaxGrid+1, err)
		}
	}
}
