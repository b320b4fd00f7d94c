package mpi

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
)

// playRoster applies a script of roster operations ("join 2; drain 1;
// boundary; drained 1; epoch") to a fresh roster of n founders and returns
// the transcript: ok or refused per change, the batch a boundary applied,
// the rank set and donors an epoch started with, and the queries' answers.
func playRoster(t *testing.T, n int, script string) string {
	t.Helper()
	r, err := NewRoster(n)
	if err != nil {
		t.Fatal(err)
	}
	verdict := func(err error) string {
		if err != nil {
			return "refused"
		}
		return "ok"
	}
	var out []string
	for _, step := range strings.Split(script, ";") {
		f := strings.Fields(step)
		var id core.ShardId
		if len(f) > 1 {
			v, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("step %q: %v", step, err)
			}
			id = core.ShardId(v)
		}
		switch f[0] {
		case "join":
			out = append(out, verdict(r.Join(id)))
		case "drain":
			out = append(out, verdict(r.Drain(id)))
		case "drained":
			out = append(out, verdict(r.Drained(id)))
		case "evict":
			out = append(out, verdict(r.Evict(id)))
		case "boundary":
			j, d := r.Boundary()
			out = append(out, fmt.Sprintf("joined=%v drained=%v", j, d))
		case "epoch":
			m, d := r.Epoch()
			out = append(out, fmt.Sprintf("members=%v donors=%v", m, d))
		case "pending":
			out = append(out, fmt.Sprintf("pending=%v", len(r.joins)+len(r.drains) > 0))
		case "draining":
			out = append(out, fmt.Sprintf("draining=%v", r.Draining()))
		case "retired":
			out = append(out, fmt.Sprintf("retired=%v", r.Retired(id)))
		case "identities":
			out = append(out, fmt.Sprintf("identities=%v", r.Identities()))
		default:
			t.Fatalf("unknown step %q", step)
		}
	}
	return strings.Join(out, "; ")
}

// TestRosterDecisions tables the one membership rule both elastic
// coordinators apply: every refusal and what each change does at the
// boundary, the confirmation and the next epoch.
func TestRosterDecisions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		script string
		want   string
	}{
		{"changes coalesce into one boundary", 2,
			"join 2; join 3; drain 1; pending; boundary; pending; draining; drained 1; epoch",
			"ok; ok; ok; pending=true; joined=[2 3] drained=[1]; pending=false; draining=[1]; ok; members=[0 2 3] donors=[1]"},
		{"a boundary with nothing pending changes nothing", 2,
			"boundary; epoch",
			"joined=[] drained=[]; members=[0 1] donors=[]"},
		{"drain is idempotent", 3,
			"drain 1; drain 1; boundary",
			"ok; ok; joined=[] drained=[1]"},
		{"drain of an unknown member is refused", 2,
			"drain 5; drain -1; pending",
			"refused; refused; pending=false"},
		{"drain of the last member is refused", 2,
			"drain 0; drain 1; boundary; drained 0; epoch; drain 1",
			"ok; refused; joined=[] drained=[0]; ok; members=[1] donors=[0]; refused"},
		{"a lone founder cannot drain", 1,
			"drain 0",
			"refused"},
		{"a pending joiner counts toward the last member", 1,
			"join 1; drain 0; drain 1; boundary; drained 0; epoch",
			"ok; ok; refused; joined=[1] drained=[0]; ok; members=[1] donors=[0]"},
		{"drain of a pending joiner", 1,
			"join 1; drain 1; boundary; draining; drained 1; epoch",
			"ok; ok; joined=[1] drained=[1]; draining=[1]; ok; members=[0] donors=[1]"},
		{"join of a known identity is refused", 2,
			"join 1; join 2; join 2; join -1; identities",
			"refused; ok; refused; refused; identities=[0 1 2]"},
		{"identities are never reused", 2,
			"drain 1; boundary; drained 1; epoch; join 1",
			"ok; joined=[] drained=[1]; ok; members=[0] donors=[1]; refused"},
		{"confirm, donor once, then left", 3,
			"drained 2; drain 2; boundary; retired 2; drained 2; drained 2; retired 2; epoch; epoch; drain 2; identities",
			"refused; ok; joined=[] drained=[2]; retired=false; ok; refused; retired=true; members=[0 1] donors=[2]; members=[0 1] donors=[]; refused; identities=[0 1 2]"},
		{"draining members are outside the rank set", 3,
			"drain 1; boundary; epoch; drained 1; epoch",
			"ok; joined=[] drained=[1]; members=[0 2] donors=[]; ok; members=[0 2] donors=[1]"},
		{"evict removes a member and drops its pending drain", 3,
			"drain 1; evict 1; pending; evict 1; evict 7; retired 1; boundary; epoch",
			"ok; ok; pending=false; refused; refused; retired=true; joined=[] drained=[]; members=[0 2] donors=[1]"},
		{"evict refuses a pending joiner and a draining member", 2,
			"join 2; evict 2; drain 1; boundary; evict 1; drained 1",
			"ok; refused; ok; joined=[2] drained=[1]; refused; ok"},
		{"evict may remove the last member", 1,
			"evict 0; epoch; drain 0",
			"ok; members=[] donors=[0]; refused"},
	} {
		if got := playRoster(t, tc.n, tc.script); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
	if _, err := NewRoster(0); err == nil {
		t.Error("a roster of no founders accepted")
	}
}

// TestRosterRandomSequences drives the roster through 2 000 seeded random
// sequences of joins, drains, boundaries, confirmations, evictions and
// epochs, checking the roster's invariants after every step: a drain never
// leaves the run without a member unless someone was evicted; a boundary
// applies its whole batch at once; a drain is confirmed only while
// draining, and a confirmed or evicted member is handed off exactly once; identities are never
// reused; and every identity is in exactly one place. A failure names its
// seed.
func TestRosterRandomSequences(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		if err := rosterSequence(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func rosterSequence(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	founders := 1 + rng.Intn(4)
	r, err := NewRoster(founders)
	if err != nil {
		return err
	}
	seen := map[core.ShardId]bool{}
	for i := 0; i < founders; i++ {
		seen[core.ShardId(i)] = true
	}
	next := core.ShardId(founders)
	confirmed := map[core.ShardId]bool{} // drain confirmed, not yet handed off
	handed := map[core.ShardId]bool{}
	evicted := false
	pick := func(ids []core.ShardId) core.ShardId {
		if len(ids) == 0 || rng.Intn(5) == 0 {
			return core.ShardId(rng.Intn(int(next) + 2)) // anything, known or not
		}
		return ids[rng.Intn(len(ids))]
	}

	for step := 0; step < 40; step++ {
		members, draining := r.Members(), r.Draining()
		var op string
		switch k := rng.Intn(20); {
		case k < 4:
			op = "join"
			id := next
			if rng.Intn(4) == 0 {
				id = pick(r.Identities())
			}
			err := r.Join(id)
			if (err == nil) == seen[id] {
				return fmt.Errorf("step %d: join %d (seen %v): %v", step, id, seen[id], err)
			}
			if err == nil {
				seen[id] = true
				next = max(next, id+1)
			}
		case k < 9:
			op = "drain"
			id := pick(append(members, r.joins...))
			wasPending := slices.Contains(r.drains, id)
			before := len(members) + len(r.joins) - len(r.drains)
			eligible := slices.Contains(members, id) || slices.Contains(r.joins, id)
			err := r.Drain(id)
			wantOK := eligible && (wasPending || before > 1)
			if (err == nil) != wantOK {
				return fmt.Errorf("step %d: drain %d (eligible %v, pending %v, remaining %d): %v", step, id, eligible, wasPending, before, err)
			}
		case k < 13:
			op = "boundary"
			joins, drains := slices.Clone(r.joins), slices.Clone(r.drains)
			joined, drained := r.Boundary()
			if !slices.Equal(joined, joins) || !slices.Equal(drained, drains) || len(r.joins)+len(r.drains) > 0 {
				return fmt.Errorf("step %d: boundary applied %v/%v of pending %v/%v, left %v/%v pending", step, joined, drained, joins, drains, r.joins, r.drains)
			}
			want := slices.DeleteFunc(append(members, joined...), func(id core.ShardId) bool { return slices.Contains(drained, id) })
			slices.Sort(want)
			if got := r.Members(); !slices.Equal(got, want) {
				return fmt.Errorf("step %d: members after the boundary %v, want %v", step, got, want)
			}
		case k < 16:
			op = "drained"
			id := pick(draining)
			err := r.Drained(id)
			if (err == nil) != slices.Contains(draining, id) {
				return fmt.Errorf("step %d: drained %d (draining %v): %v", step, id, draining, err)
			}
			if err == nil {
				confirmed[id] = true
			}
		case k < 17:
			op = "evict"
			id := pick(members)
			err := r.Evict(id)
			if (err == nil) != slices.Contains(members, id) {
				return fmt.Errorf("step %d: evict %d (members %v): %v", step, id, members, err)
			}
			if err == nil {
				evicted, confirmed[id] = true, true // a donor, like a confirmed drain
			}
		default:
			op = "epoch"
			got, donors := r.Epoch()
			for _, d := range donors {
				if !confirmed[d] || handed[d] {
					return fmt.Errorf("step %d: donor %d (confirmed %v, handed off before %v)", step, d, confirmed[d], handed[d])
				}
				handed[d] = true
				delete(confirmed, d)
			}
			if len(confirmed) != 0 {
				return fmt.Errorf("step %d: confirmed drains %v not handed off", step, confirmed)
			}
			if !slices.Equal(got, members) {
				return fmt.Errorf("step %d: epoch members %v, rank set %v", step, got, members)
			}
		}

		// Every identity is in exactly one place.
		places := map[core.ShardId]int{}
		for _, set := range [][]core.ShardId{r.Members(), r.Draining(), r.joins} {
			for _, id := range set {
				places[id]++
			}
		}
		for id := range confirmed {
			places[id]++
		}
		for id, n := range places {
			if n != 1 || r.Retired(id) != confirmed[id] {
				return fmt.Errorf("after %s (step %d): member %d in %d places, retired %v", op, step, id, n, r.Retired(id))
			}
		}
		for _, id := range r.Identities() {
			if !seen[id] {
				return fmt.Errorf("after %s (step %d): identity %d was never admitted", op, step, id)
			}
			if places[id] == 0 && !r.Retired(id) {
				return fmt.Errorf("after %s (step %d): identity %d is nowhere", op, step, id)
			}
		}
		if len(r.Identities()) != len(seen) {
			return fmt.Errorf("after %s (step %d): %d identities, %d admitted", op, step, len(r.Identities()), len(seen))
		}
		for _, d := range r.drains {
			if !slices.Contains(r.Members(), d) && !slices.Contains(r.joins, d) {
				return fmt.Errorf("after %s (step %d): pending drain of %d, neither member nor joiner", op, step, d)
			}
		}
		if !slices.IsSorted(r.Members()) {
			return fmt.Errorf("after %s (step %d): members %v not ascending", op, step, r.Members())
		}
		// Only an eviction can leave the run with no one to run it.
		if !evicted && len(r.Members())+len(r.joins)-len(r.drains) < 1 {
			return fmt.Errorf("after %s (step %d): no member would survive the boundary", op, step)
		}
	}
	return nil
}
