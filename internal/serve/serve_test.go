package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/check"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
)

// slowRegistry augments the defaults with a "slow" program whose root
// parks for sleep_ms — the knob the shedding and cancel tests use to build
// a backlog.
func slowRegistry() *Registry {
	r := DefaultRegistry()
	r.Add(Program{
		Name:  "slow",
		About: "reduction whose root sleeps (sleep_ms)",
		Build: func(p Params) (mpi.Submission, error) {
			g, err := graphs.NewReduction(4, 2)
			if err != nil {
				return mpi.Submission{}, err
			}
			sub := prototypeSubmission(g, p)
			mix := mixCallback(sub.Graph.(*core.Plan))
			nap := time.Duration(p.Get("sleep_ms", 20)) * time.Millisecond
			sub.Register = func(c core.CallbackRegistrar) error {
				for _, cb := range g.Callbacks() {
					if err := c.RegisterCallback(cb, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
						if t, _ := g.Task(id); t.IsRoot() {
							time.Sleep(nap)
						}
						return mix(in, id)
					}); err != nil {
						return err
					}
				}
				return nil
			}
			return sub, nil
		},
	})
	return r
}

func submitAndWait(t *testing.T, s *Server, program string, p Params) RunStatus {
	t.Helper()
	st, err := s.Submit(program, p)
	if err != nil {
		t.Fatalf("submit %s: %v", program, err)
	}
	st, err = s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("wait %s/%d: %v", program, st.ID, err)
	}
	return st
}

// TestServerThousandSubmissions is the sustained-throughput acceptance
// test: ≥1000 small submissions stream through one warm fabric from
// concurrent clients, and every digest matches the one-shot serial
// reference for its program.
func TestServerThousandSubmissions(t *testing.T) {
	progs := []struct {
		name string
		p    Params
	}{
		{"reduction", Params{"blocks": 8, "payload": 32}},
		{"broadcast", Params{"blocks": 8, "payload": 32}},
		{"kwaymerge", Params{"blocks": 4, "payload": 32}},
		{"binaryswap", Params{"blocks": 4, "payload": 32}},
	}
	reg := DefaultRegistry()
	want := make(map[string]string, len(progs))
	for _, pr := range progs {
		d, err := reg.ReferenceDigest(pr.name, pr.p)
		if err != nil {
			t.Fatalf("reference %s: %v", pr.name, err)
		}
		want[pr.name] = d
	}

	s, err := NewServer(Config{Ranks: 4, QueueDepth: 4096, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients, perClient = 8, 125 // 1000 total
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pr := progs[(c+i)%len(progs)]
				st, err := s.Submit(pr.name, pr.p)
				if err != nil {
					errs <- fmt.Errorf("client %d submit %d: %w", c, i, err)
					return
				}
				st, err = s.Wait(context.Background(), st.ID)
				if err != nil {
					errs <- err
					return
				}
				if st.State != StateDone {
					errs <- fmt.Errorf("run %d (%s): state %s, err %q", st.ID, pr.name, st.State, st.Error)
					return
				}
				if st.Digest != want[pr.name] {
					errs <- fmt.Errorf("run %d (%s): digest %s, want %s", st.ID, pr.name, st.Digest, want[pr.name])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	m := s.Metrics()
	if m.Completed != clients*perClient {
		t.Fatalf("completed %d of %d", m.Completed, clients*perClient)
	}
	if m.Shed != 0 {
		t.Fatalf("unexpected shedding: %d", m.Shed)
	}
}

// TestServerUseCaseDigests runs the paper's three use cases through the
// warm service and checks each against its serial reference.
func TestServerUseCaseDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("use-case programs are heavyweight")
	}
	reg := DefaultRegistry()
	s, err := NewServer(Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"mergetree", "render", "register"} {
		p := Params{"n": 16, "blocks": 4}
		want, err := reg.ReferenceDigest(name, p)
		if err != nil {
			t.Fatalf("reference %s: %v", name, err)
		}
		st := submitAndWait(t, s, name, p)
		if st.State != StateDone {
			t.Fatalf("%s: state %s, err %q", name, st.State, st.Error)
		}
		if st.Digest != want {
			t.Fatalf("%s: digest %s, want %s", name, st.Digest, want)
		}
	}
}

// TestServerStartsIdleRunAtOnce checks that an idle server starts a lone
// submission straight away instead of holding it back: over 20 sequential
// submit-and-wait round trips the median queue wait stays under 1 ms. Each
// run is already counted in Metrics when its Wait returns.
func TestServerStartsIdleRunAtOnce(t *testing.T) {
	s, err := NewServer(Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waits := make([]float64, 20)
	for i := range waits {
		st := submitAndWait(t, s, "reduction", Params{"blocks": 4, "payload": 32})
		if st.State != StateDone {
			t.Fatalf("run %d: state %s, err %q", st.ID, st.State, st.Error)
		}
		if m := s.Metrics(); m.Completed != uint64(i+1) {
			t.Fatalf("after %d waited runs Metrics counts %d completed", i+1, m.Completed)
		}
		waits[i] = st.QueueWaitMs
	}
	sort.Float64s(waits)
	if median := (waits[9] + waits[10]) / 2; median >= 1 {
		t.Fatalf("median queue wait %.3f ms on an idle server, want < 1 ms (sorted: %v)", median, waits)
	}
}

// TestServerShedsWhenOverloaded fills a tiny admission queue behind a slow
// run and checks overflow is shed with ErrOverloaded — and that the server
// then drains cleanly with no deadlock.
func TestServerShedsWhenOverloaded(t *testing.T) {
	s, err := NewServer(Config{
		Ranks:       2,
		QueueDepth:  2,
		MaxInflight: 1,
		Registry:    slowRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := Params{"sleep_ms": 50}
	var accepted []uint64
	shed := 0
	for i := 0; i < 20; i++ {
		st, err := s.Submit("slow", p)
		switch {
		case err == nil:
			accepted = append(accepted, st.ID)
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("submit %d: unexpected error %v", i, err)
		}
	}
	if shed == 0 {
		t.Fatal("no submissions shed from a depth-2 queue behind 50ms runs")
	}
	for _, id := range accepted {
		st, err := s.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("run %d: state %s, err %q", id, st.State, st.Error)
		}
	}
	if m := s.Metrics(); m.Shed != uint64(shed) || m.Completed != uint64(len(accepted)) {
		t.Fatalf("metrics %+v disagree with shed=%d completed=%d", m, shed, len(accepted))
	}
}

// TestServerCancel covers both cancel paths: a queued run dies without
// executing, a running run unwinds as cancelled, and the server keeps
// serving afterwards.
func TestServerCancel(t *testing.T) {
	s, err := NewServer(Config{
		Ranks:       2,
		QueueDepth:  8,
		MaxInflight: 1,
		Registry:    slowRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	running, err := s.Submit("slow", Params{"sleep_ms": 200})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit("slow", Params{"sleep_ms": 200})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued cancel: state %s", st.State)
	}

	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	st, err = s.Wait(context.Background(), running.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The running run may have been dispatched-but-not-started or mid-
	// flight; either way it must land terminal and not Done-with-digest
	// unless it genuinely finished before the cancel won the race.
	if !st.State.terminal() {
		t.Fatalf("running cancel: non-terminal state %s", st.State)
	}

	after := submitAndWait(t, s, "reduction", Params{"blocks": 4})
	if after.State != StateDone {
		t.Fatalf("submit after cancels: state %s, err %q", after.State, after.Error)
	}
	if _, err := s.Cancel(after.ID); err != nil {
		t.Fatalf("cancel of a finished run should be a no-op: %v", err)
	}
}

// TestServerFailedRunIsolated checks a failing program lands in
// StateFailed without poisoning the warm fabric.
func TestServerFailedRunIsolated(t *testing.T) {
	reg := DefaultRegistry()
	boom := errors.New("boom")
	reg.Add(Program{
		Name: "failing",
		Build: func(p Params) (mpi.Submission, error) {
			g, err := graphs.NewReduction(4, 2)
			if err != nil {
				return mpi.Submission{}, err
			}
			sub := prototypeSubmission(g, p)
			mix := mixCallback(sub.Graph.(*core.Plan))
			sub.Register = func(c core.CallbackRegistrar) error {
				for _, cb := range g.Callbacks() {
					if err := c.RegisterCallback(cb, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
						if t, _ := g.Task(id); t.IsRoot() {
							return nil, boom
						}
						return mix(in, id)
					}); err != nil {
						return err
					}
				}
				return nil
			}
			return sub, nil
		},
	})
	s, err := NewServer(Config{Ranks: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st := submitAndWait(t, s, "failing", nil)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("failing run: state %s, err %q", st.State, st.Error)
	}
	good := submitAndWait(t, s, "reduction", Params{"blocks": 4})
	if good.State != StateDone {
		t.Fatalf("run after failure: state %s, err %q", good.State, good.Error)
	}
	if m := s.Metrics(); m.Failed != 1 || m.Completed != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestServerLifecycleNoGoroutineLeak walks a full server lifecycle —
// submissions, shedding, cancels, close — and checks the goroutine count
// returns to its baseline. Run with -race.
func TestServerLifecycleNoGoroutineLeak(t *testing.T) {
	check.NoLeak(t)
	s, err := NewServer(Config{Ranks: 2, QueueDepth: 4, MaxInflight: 2, Registry: slowRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 30; i++ {
		st, err := s.Submit("slow", Params{"sleep_ms": 5})
		if err != nil {
			lastErr = err
			continue
		}
		if i%7 == 0 {
			s.Cancel(st.ID)
		}
	}
	if lastErr != nil && !errors.Is(lastErr, ErrOverloaded) {
		t.Fatal(lastErr)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("reduction", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err=%v, want ErrClosed", err)
	}
}

// TestServerHistoryEviction checks finished records beyond the history
// bound are dropped while live runs survive.
func TestServerHistoryEviction(t *testing.T) {
	s, err := NewServer(Config{Ranks: 2, History: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var first uint64
	for i := 0; i < 12; i++ {
		st := submitAndWait(t, s, "reduction", Params{"blocks": 4})
		if i == 0 {
			first = st.ID
		}
	}
	if _, err := s.Get(first); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("oldest run should be evicted, got err=%v", err)
	}
	if got := len(s.Runs()); got > 5 {
		t.Fatalf("history holds %d records, bound is 4", got)
	}
}

// httpJSON posts/gets JSON against the test server.
func httpJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestServerHTTP exercises the control plane end to end over a loopback
// listener: submit-and-wait with digest verification, status, metrics,
// health, 404s and 429 shedding.
func TestServerHTTP(t *testing.T) {
	reg := slowRegistry()
	want, err := reg.ReferenceDigest("reduction", Params{"blocks": 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{
		Ranks:       2,
		QueueDepth:  2,
		MaxInflight: 1,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st RunStatus
	code := httpJSON(t, "POST", ts.URL+"/submit", SubmitRequest{Program: "reduction", Params: Params{"blocks": 8}, Wait: true}, &st)
	if code != http.StatusOK {
		t.Fatalf("submit wait: status %d", code)
	}
	if st.State != StateDone || st.Digest != want {
		t.Fatalf("submit wait: state %s digest %s (want %s)", st.State, st.Digest, want)
	}
	if st.MakespanMs <= 0 {
		t.Fatalf("per-run makespan missing: %+v", st)
	}

	var got RunStatus
	if code := httpJSON(t, "GET", fmt.Sprintf("%s/runs/%d", ts.URL, st.ID), nil, &got); code != http.StatusOK {
		t.Fatalf("get run: status %d", code)
	}
	if got.Digest != want {
		t.Fatalf("get run: digest %s", got.Digest)
	}

	if code := httpJSON(t, "GET", ts.URL+"/runs/99999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown run: status %d", code)
	}
	if code := httpJSON(t, "POST", ts.URL+"/submit", SubmitRequest{Program: "nope"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown program: status %d", code)
	}

	// Saturate: async slow submissions against a depth-2 queue until a 429.
	saw429 := false
	var asyncIDs []uint64
	for i := 0; i < 20 && !saw429; i++ {
		var ast RunStatus
		code := httpJSON(t, "POST", ts.URL+"/submit", SubmitRequest{Program: "slow", Params: Params{"sleep_ms": 50}}, &ast)
		switch code {
		case http.StatusAccepted:
			asyncIDs = append(asyncIDs, ast.ID)
		case http.StatusTooManyRequests:
			saw429 = true
		default:
			t.Fatalf("async submit: status %d", code)
		}
	}
	if !saw429 {
		t.Fatal("never saw a 429 from a saturated depth-2 queue")
	}
	for _, id := range asyncIDs {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}

	var m Metrics
	if code := httpJSON(t, "GET", ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Shed == 0 || m.Completed == 0 || m.MakespanP50Ms <= 0 {
		t.Fatalf("metrics incomplete: %+v", m)
	}
	// The stray counter is exposed (and zero: nothing raced a cancel here).
	if m.StrayFrames != 0 {
		t.Fatalf("stray_frames = %d on an orderly server", m.StrayFrames)
	}

	var health map[string]any
	if code := httpJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
}

// TestReferenceDigestStable pins that the serial reference digest is
// deterministic across invocations — the property every conformance
// comparison in this package rests on.
func TestReferenceDigestStable(t *testing.T) {
	reg := DefaultRegistry()
	for _, name := range []string{"reduction", "broadcast", "kwaymerge", "binaryswap"} {
		a, err := reg.ReferenceDigest(name, Params{"blocks": 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := reg.ReferenceDigest(name, Params{"blocks": 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Fatalf("%s: reference digest unstable: %s vs %s", name, a, b)
		}
		c, err := reg.ReferenceDigest(name, Params{"blocks": 16})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c == a {
			t.Fatalf("%s: digest ignores parameters", name)
		}
	}
}

// TestDefaultRegistryDigestsPinned pins the serial reference digest of every
// stock program at default parameters to the bytes captured before the use
// cases moved into internal/usecase: a refactor of the wiring must not move
// a byte.
func TestDefaultRegistryDigestsPinned(t *testing.T) {
	pinned := map[string]string{
		"binaryswap":    "e345c2bcb2c31a0e4da819472b2045582d225da7a0963f2fc02db7cce6f92999",
		"broadcast":     "f73ad5f2cbe9dc27682b299196159b076ee1a4ea03ae66e846a801e69e5e6298",
		"kwaymerge":     "c12916c95d74b2b3335a5a7a34a747c93cf1aedf6ba7685c495754dbc120c4a3",
		"mergetree":     "a3dd815c958f44e3aa1b2b0c370468d901e121c95a00319797d8a043309b47f0",
		"reduction":     "7dbdda14468604f5921204ae73dcdb77c7231e2644ea9fa7b2fc99e8cc7e1441",
		"register":      "5359ce30c95f7ce2ba19c0cf86a6a1d37af9a395393468b77e11788a4b69fce5",
		"register-iter": "aa8a7704ac186e88cca9a0c6f4a2054ee1d0f02d3d5ddb3a7d77a312c6aad5fb",
		"render":        "63c6ffa9af99fc1d6d1bb97d0555fe409fcd2b65715917f5c807b1a35b6c2de5",
	}
	reg := DefaultRegistry()
	if got := reg.Names(); len(got) != len(pinned) {
		t.Fatalf("stock programs = %v, want the %d pinned ones", got, len(pinned))
	}
	for name, want := range pinned {
		got, err := reg.ReferenceDigest(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: reference digest %s, pinned %s", name, got, want)
		}
	}
}

// TestBuildAllocationPins: building the graph-scale k-way merge submission
// (16 382 tasks, 4 096 inputs of 64 bytes) costs a constant number of
// allocations. Parent: 73 794 — a Task answer walk in Compile, a second
// Compile in the callback and one byte slice per input.
func TestBuildAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reg := DefaultRegistry()
	p := Params{"blocks": 4096, "valence": 2, "payload": 64}
	if n := testing.AllocsPerRun(3, func() {
		if _, err := reg.Build("kwaymerge", p); err != nil {
			t.Fatal(err)
		}
	}); n > 100 {
		t.Errorf("Build(kwaymerge, 4096 blocks) allocates %v, pinned at 100 (parent 73 794)", n)
	}
}

// BenchmarkBuild is the graph-scale workload's set-up before Initialize:
// the kwaymerge submission over 4 096 blocks.
func BenchmarkBuild(b *testing.B) {
	reg := DefaultRegistry()
	p := Params{"blocks": 4096, "valence": 2, "payload": 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Build("kwaymerge", p); err != nil {
			b.Fatal(err)
		}
	}
}
