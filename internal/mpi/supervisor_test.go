package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

var (
	errFault    = fmt.Errorf("epoch fault: %w", fabric.ErrPeerLost)
	errCallback = errors.New("callback failed")
)

// playSupervisor applies a script of attempt outcomes and roster steps
// ("lost 1; epoch; fenced 3; failed; fatal; ok") to a fresh roster of n
// founders and a supervisor with the given budget, and returns the
// transcript: each outcome's step ("next", "next after 2", "done" or
// "give up: <reason>") and each roster step's answer. "fenced N" is N
// fences in a row, transcribed by the last step.
func playSupervisor(t *testing.T, n, attempts int, script string) string {
	t.Helper()
	r, err := NewRoster(n)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSupervisor(attempts)
	render := func(st Step) string {
		switch {
		case st.Err != nil:
			return "give up: " + st.Err.Error()
		case !st.Next:
			return "done"
		case st.Backoff > 0:
			return fmt.Sprintf("next after %d", st.Backoff)
		}
		return "next"
	}
	var out []string
	for _, step := range strings.Split(script, ";") {
		f := strings.Fields(step)
		var ids []core.ShardId
		for _, a := range f[1:] {
			v, err := strconv.Atoi(a)
			if err != nil {
				t.Fatalf("step %q: %v", step, err)
			}
			ids = append(ids, core.ShardId(v))
		}
		switch f[0] {
		case "ok":
			out = append(out, render(s.Decide(r, Outcome{})))
		case "fenced":
			times := 1
			if len(ids) == 1 {
				times = int(ids[0])
			}
			var st Step
			for i := 0; i < times; i++ {
				st = s.Decide(r, Outcome{Fenced: true})
			}
			out = append(out, render(st))
		case "lost":
			out = append(out, render(s.Decide(r, Outcome{Lost: ids, Err: errFault})))
		case "fenced-lost":
			out = append(out, render(s.Decide(r, Outcome{Fenced: true, Lost: ids, Err: errFault})))
		case "failed":
			out = append(out, render(s.Decide(r, Outcome{Err: errFault})))
		case "fatal":
			out = append(out, render(s.Decide(r, Outcome{Err: errCallback, Fatal: true})))
		case "join":
			if err := r.Join(ids[0]); err != nil {
				out = append(out, "refused")
			} else {
				out = append(out, "ok")
			}
		case "boundary":
			j, d := r.Boundary()
			out = append(out, fmt.Sprintf("joined=%v drained=%v", j, d))
		case "epoch":
			m, d := r.Epoch()
			out = append(out, fmt.Sprintf("members=%v donors=%v", m, d))
		case "evicted":
			out = append(out, fmt.Sprintf("evicted=%v fences=%d", s.Lost(), s.Fences()))
		default:
			t.Fatalf("unknown step %q", step)
		}
	}
	return strings.Join(out, "; ")
}

// TestSupervisorDecisions tables the one recovery rule both elastic
// coordinators apply: what each attempt outcome costs and what comes next.
func TestSupervisorDecisions(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n, attempts int
		script      string
		want        string
	}{
		{"success is done", 2, 3,
			"ok",
			"done"},
		{"a loss evicts, and the member is a donor once", 3, 3,
			"lost 1; evicted; epoch; epoch; ok",
			"next after 1; evicted=[1] fences=0; members=[0 2] donors=[1]; members=[0 2] donors=[]; done"},
		{"one outcome's losses are one step", 4, 3,
			"lost 3 1; epoch",
			"next after 1; members=[0 2] donors=[1 3]"},
		{"a fence does not spend the budget", 2, 2,
			"fenced; failed; fenced 5; ok; evicted",
			"next; next after 1; next; done; evicted=[] fences=6"},
		{"fence 33 gives up", 2, 3,
			"fenced 32; fenced",
			"next; give up: mpi: 33 membership fences: core: retries exhausted"},
		{"a loss outranks a fence", 2, 3,
			"fenced-lost 1; evicted",
			"next after 1; evicted=[1] fences=0"},
		{"the budget runs out", 3, 3,
			"failed; lost 2; failed",
			"next after 1; next after 2; give up: mpi: 3 attempt(s) failed (lost: member 2): core: retries exhausted (last: epoch fault: fabric: peer lost)"},
		{"a retry in place evicts nobody", 2, 2,
			"failed; evicted; epoch",
			"next after 1; evicted=[] fences=0; members=[0 1] donors=[]"},
		{"the last member lost gives up naming it", 2, 5,
			"lost 1; epoch; lost 0",
			"next after 1; members=[0] donors=[1]; give up: mpi: every member lost (member 0, member 1): core: retries exhausted"},
		{"a pending joiner keeps the run alive", 1, 3,
			"join 1; lost 0; boundary; epoch",
			"ok; next after 1; joined=[1] drained=[]; members=[1] donors=[0]"},
		{"a loss of a non-member evicts nobody", 2, 3,
			"lost 7; evicted",
			"next after 1; evicted=[] fences=0"},
		{"a non-retryable failure gives up at once", 2, 3,
			"fatal",
			"give up: callback failed"},
		{"a non-retryable failure evicts nobody", 2, 3,
			"fatal; evicted",
			"give up: callback failed; evicted=[] fences=0"},
		{"the default budget", 2, 0,
			"failed; failed; failed",
			"next after 1; next after 2; give up: mpi: 3 attempt(s) failed (lost: none): core: retries exhausted (last: epoch fault: fabric: peer lost)"},
	} {
		if got := playSupervisor(t, tc.n, tc.attempts, tc.script); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestSupervisorRandomSequences drives a roster and a supervisor through
// 2 000 seeded random runs — joins, drains and their confirmations between
// attempts, and attempts ending ok, fenced, with losses, failed or fatal —
// checking after every step: one outcome is at most one epoch bump, whose
// donors hold every member it evicted; failures never exceed the budget;
// granted fences never exceed the cap; an evicted identity never returns
// to the member set; and the run ends exactly when a step says done or
// give up. Every way a run can end must be reached. A failure names its
// seed.
func TestSupervisorRandomSequences(t *testing.T) {
	ends := map[string]int{}
	for seed := int64(1); seed <= 2000; seed++ {
		end, err := supervisorSequence(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ends[end]++
	}
	for _, end := range []string{"done", "fatal", "fences", "every member lost", "budget"} {
		if ends[end] == 0 {
			t.Errorf("no sequence ended by %q (ends: %v)", end, ends)
		}
	}
}

// supervisorSequence plays one seeded run and returns how it ended.
func supervisorSequence(seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	attempts := 1 + rng.Intn(4)
	fenceBias := rng.Intn(100) // some runs churn until the cap
	r, err := NewRoster(1 + rng.Intn(4))
	if err != nil {
		return "", err
	}
	s := NewSupervisor(attempts)
	next := core.ShardId(len(r.Members()))
	evicted := map[core.ShardId]bool{}
	failures, granted := 0, 0
	members, _ := r.Epoch()

	for step := 0; step < 200; step++ {
		// Membership requests land between attempts.
		for rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				r.Join(next)
				next++
			} else if len(members) > 0 {
				r.Drain(members[rng.Intn(len(members))])
			}
		}

		var o Outcome
		k := rng.Intn(100)
		switch {
		case k < fenceBias:
			o.Fenced = true
		case k < fenceBias+(100-fenceBias)/4:
			// ok
		default:
			switch rng.Intn(5) {
			case 0:
				o.Err, o.Fatal = errCallback, true
			case 1:
				o.Err = errFault
			default:
				for _, id := range members {
					if rng.Intn(3) == 0 {
						o.Lost = append(o.Lost, id)
					}
				}
				if rng.Intn(8) == 0 {
					o.Lost = append(o.Lost, next+5) // never a member
				}
				o.Err = errFault
			}
		}

		st := s.Decide(r, o)
		failed := !o.Fatal && (len(o.Lost) > 0 || (!o.Fenced && o.Err != nil))
		if failed {
			failures++
		}
		if failures > attempts {
			return "", fmt.Errorf("step %d: %d failures on a budget of %d", step, failures, attempts)
		}
		var newly []core.ShardId
		for _, id := range o.Lost {
			if slices.Contains(members, id) && !evicted[id] {
				evicted[id] = true
				newly = append(newly, id)
			}
		}
		if got := s.Lost(); len(got) != len(evicted) {
			return "", fmt.Errorf("step %d: supervisor lost %v, evicted %v", step, got, evicted)
		}
		switch {
		case st.Err == nil && !st.Next:
			if o.Fenced || o.Err != nil || len(o.Lost) > 0 {
				return "", fmt.Errorf("step %d: outcome %+v is not success, yet done", step, o)
			}
			return "done", nil
		case st.Err == nil && o.Fatal:
			return "", fmt.Errorf("step %d: a fatal failure went on", step)
		case st.Err == nil:
		case o.Fatal:
			return "fatal", nil
		case o.Fenced && len(o.Lost) == 0:
			if granted != maxFences {
				return "", fmt.Errorf("step %d: gave up after %d granted fences: %v", step, granted, st.Err)
			}
			return "fences", nil
		case len(r.Members())+len(r.joins) == 0:
			return "every member lost", nil
		case failures == attempts:
			return "budget", nil
		default:
			return "", fmt.Errorf("step %d: gave up early (%d/%d failures): %v", step, failures, attempts, st.Err)
		}
		if o.Fenced && len(o.Lost) == 0 {
			if granted++; granted > maxFences {
				return "", fmt.Errorf("step %d: fence %d granted past the cap %d", step, granted, maxFences)
			}
			if st.Backoff != 0 {
				return "", fmt.Errorf("step %d: a fence backs off %d", step, st.Backoff)
			}
		} else if st.Backoff != failures {
			return "", fmt.Errorf("step %d: backoff %d after failure %d", step, st.Backoff, failures)
		}

		// The one epoch bump the step allows: the whole pending batch and
		// every member this outcome evicted, at once.
		_, drained := r.Boundary()
		for _, id := range drained {
			r.Drained(id)
		}
		var donors []core.ShardId
		members, donors = r.Epoch()
		for _, id := range newly {
			if !slices.Contains(donors, id) {
				return "", fmt.Errorf("step %d: evicted member %d is not a donor of the next epoch (%v)", step, id, donors)
			}
		}
		for _, id := range members {
			if evicted[id] {
				return "", fmt.Errorf("step %d: evicted member %d is back in the member set %v", step, id, members)
			}
		}
		for id := range evicted {
			if r.Join(id) == nil {
				return "", fmt.Errorf("step %d: evicted member %d rejoined", step, id)
			}
		}
	}
	return "unfinished", nil
}
