package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
)

// workerEnv marks a re-exec of this test binary as a bfrun process: the
// multi-process modes fork os.Executable(), which under `go test` is the
// test binary, so TestMain turns those children into plain bfrun workers.
const workerEnv = "BFRUN_TEST_AS_BFRUN"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		main()
		return
	}
	os.Setenv(workerEnv, "1") // inherited by every forked worker
	os.Exit(m.Run())
}

// bfrun runs one command line in-process and returns what it printed.
func bfrun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestInMemoryEveryCaseEveryRuntime(t *testing.T) {
	want := map[string]string{
		"mergetree":     "mismatches=0",
		"render":        "matches-icet=true",
		"register":      "exact=9/9",
		"register-iter": "exact=9/9",
	}
	for uc, token := range want {
		for _, rt := range []string{"serial", "mpi", "original-mpi", "charm", "legion-spmd", "legion-il"} {
			out, err := bfrun(t, "-case", uc, "-runtime", rt, "-ranks", "3")
			if err != nil {
				t.Fatalf("%s on %s: %v\n%s", uc, rt, err, out)
			}
			if !strings.HasPrefix(out, uc) || !strings.Contains(out, token) || !strings.Contains(out, "3 shards") {
				t.Errorf("%s on %s: summary %q lacks %q", uc, rt, out, token)
			}
		}
	}
}

// TestTraceHonouredOutsideMergeTree is the regression test for -trace being
// silently ignored by every case but mergetree.
func TestTraceHonouredOutsideMergeTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "render.csv")
	out, err := bfrun(t, "-case", "render", "-runtime", "mpi", "-trace", path, "-whatif", "64")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("-trace wrote nothing: %v", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 15 // 8-leaf binary reduction
	if len(rows) != tasks+1 {
		t.Errorf("trace has %d rows, want a header and one span per task (%d)", len(rows), tasks)
	}
	if !strings.Contains(out, "trace: 15 spans") || !strings.Contains(out, "what-if on 64 simulated cores") {
		t.Errorf("summary lacks the trace and what-if reports:\n%s", out)
	}
}

func TestBadCommandLinesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-ranks", "0"},
		{"-ranks", "-3", "-transport", "tcp"},
		{"-blocks", "6"},
		{"-blocks", "2"},
		{"-blocks", "0", "-case", "render"},
		{"-trace", "t.csv", "-transport", "tcp"},
		{"-trace", "t.csv", "-elastic"},
		{"-trace", "t.csv", "-faults"},
		{"-trace", "t.csv", "-resume", "dir"},
		{"-transport", "udp"},
		{"-transport", "tcp", "-runtime", "charm"},
		{"-wire-tier", "carrier-pigeon"},
		{"-runtime", "slurm"},
		{"-kill-all-after", "1"},
		{"-faults", "-kill-rank", "9"},
		{"-faults", "-ranks", "2", "-kill-rank", "-1"},
		{"-elastic", "-ranks", "2", "-join", "1", "-drain", "3"},
		{"-shards", "4"},
		{"-wire-rank", "0"},
	} {
		out, err := bfrun(t, args...)
		var usage usageError
		if !errors.As(err, &usage) {
			t.Errorf("bfrun %v: err = %v, want a usage error (exit status 2)", args, err)
		}
		if out != "" || strings.Contains(fmt.Sprint(err), "\n") {
			t.Errorf("bfrun %v: want a one-line error and no output, got %q / %q", args, err, out)
		}
	}
	if _, err := os.Stat("t.csv"); err == nil {
		t.Error("a rejected command line still wrote its trace file")
	}
}

func TestRegisterOverTwoProcesses(t *testing.T) {
	out, err := bfrun(t, "-case", "register", "-runtime", "mpi", "-transport", "tcp", "-ranks", "2")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "wire register") || !strings.Contains(out, "over 2 processes") ||
		!strings.Contains(out, "sinks=9/9 match-serial=true") {
		t.Errorf("unexpected summary:\n%s", out)
	}
}

func TestKillAllThenResume(t *testing.T) {
	// The parent names every epoch's rendezvous socket in a directory of
	// its own under TMPDIR; crashed members leave their sockets in it, and
	// the parent must still remove it on the way out.
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	defer func() {
		if left, _ := filepath.Glob(filepath.Join(tmp, "bfrun-rdv-*")); len(left) != 0 {
			t.Errorf("the parent left its rendezvous directory behind: %v", left)
		}
	}()
	dir := t.TempDir()
	out, err := bfrun(t, "-case", "register", "-journal", dir, "-kill-all-after", "1", "-ranks", "4")
	if err != nil {
		t.Fatalf("seed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "wire-journal seed register") || !strings.Contains(out, "crashed_ranks=4/4") {
		t.Fatalf("seed did not crash every rank:\n%s", out)
	}
	out, err = bfrun(t, "-case", "register", "-resume", dir, "-ranks", "4")
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`wire-resume register +(\d+) tasks .* restored=(\d+) replayed=(\d+) executed=(\d+) match-serial=true`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("unexpected resume summary:\n%s", out)
	}
	tasks, _ := strconv.Atoi(m[1])
	restored, _ := strconv.Atoi(m[2])
	replayed, _ := strconv.Atoi(m[3])
	executed, _ := strconv.Atoi(m[4])
	if restored == 0 || replayed != restored || replayed+executed != tasks {
		t.Errorf("restored=%d replayed=%d executed=%d tasks=%d: the restart did not resume from the journals",
			restored, replayed, executed, tasks)
	}
}

// TestFaultsKillOneMember kills member 1 of four worker processes after
// its first inter-rank send. The parent must see the process die, evict it,
// recover in a second epoch and match serial — with -journal by adopting
// the dead member's journaled lineage, without by re-executing its tasks.
// The counts are the survivors' last epochs, so replayed + executed is the
// task count.
func TestFaultsKillOneMember(t *testing.T) {
	summary := regexp.MustCompile(`faults register +18 tasks over 4 processes: \S+  epochs=(\d+) lost=\[1\] adopted=(\d+) replayed=(\d+) executed=(\d+) sinks=9/9 MATCH`)
	for _, journal := range []bool{false, true} {
		args := []string{"-faults", "-case", "register", "-ranks", "4", "-kill-rank", "1", "-kill-after", "1"}
		if journal {
			args = append(args, "-journal", t.TempDir())
		}
		out, err := bfrun(t, args...)
		if err != nil {
			t.Fatalf("journal=%v: %v\n%s", journal, err, out)
		}
		m := summary.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("journal=%v: unexpected summary:\n%s", journal, out)
		}
		epochs, _ := strconv.Atoi(m[1])
		adopted, _ := strconv.Atoi(m[2])
		replayed, _ := strconv.Atoi(m[3])
		executed, _ := strconv.Atoi(m[4])
		if epochs < 2 {
			t.Errorf("journal=%v: %d epoch(s), want a recovery epoch", journal, epochs)
		}
		// The victim journaled the task whose output it sent before dying,
		// so its new owner adopts it and replays it.
		if journal && (adopted == 0 || replayed < adopted) {
			t.Errorf("journal=%v: adopted=%d replayed=%d: the dead member's lineage was not replayed", journal, adopted, replayed)
		}
		if !journal && adopted != 0 {
			t.Errorf("journal=%v: adopted=%d without a journal to adopt from", journal, adopted)
		}
		if replayed+executed != 18 {
			t.Errorf("journal=%v: replayed=%d executed=%d, want them to add up to the 18 tasks", journal, replayed, executed)
		}
	}
}

// captureStderr runs f with os.Stderr, which forked workers inherit,
// going to a file, and returns what was written there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	file, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	saved := os.Stderr
	os.Stderr = file
	f()
	os.Stderr = saved
	b, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFaultsReportOnlyUnexpectedExits reads the stderr of a -faults run:
// the evicted member's process dies on purpose, so the parent must not
// report its exit, while a worker that fails on its own still is.
func TestFaultsReportOnlyUnexpectedExits(t *testing.T) {
	stderr := captureStderr(t, func() {
		out, err := bfrun(t, "-faults", "-case", "register", "-ranks", "3", "-kill-rank", "1", "-kill-after", "1")
		if err != nil || !strings.Contains(out, "lost=[1]") {
			t.Errorf("faults run: %v\n%s", err, out)
		}
	})
	if !strings.Contains(stderr, "member 1: killed by -kill-after") {
		t.Errorf("the victim's own error is missing from stderr:\n%s", stderr)
	}
	if strings.Contains(stderr, "exited:") {
		t.Errorf("the parent reported the evicted member's exit:\n%s", stderr)
	}

	stderr = captureStderr(t, func() {
		var f fleet
		if err := f.fork("-ranks", "0"); err != nil {
			t.Fatal(err)
		}
		if got := f.wait([]core.ShardId{0}); got.failed != 1 {
			t.Errorf("a worker that never joined and exited 2 counts as %d failures, want 1", got.failed)
		}
	})
	if !strings.Contains(stderr, "bfrun: worker 0 exited: exit status 2") {
		t.Errorf("a failed worker that was not evicted went unreported:\n%s", stderr)
	}
}

// TestFaultsWithoutAFaultFails arms a kill that never fires: the run
// matches serial but recovered nothing, so it must fail.
func TestFaultsWithoutAFaultFails(t *testing.T) {
	out, err := bfrun(t, "-faults", "-case", "register", "-ranks", "2", "-kill-after", "100000")
	if err == nil || !strings.Contains(err.Error(), "member 1 was never lost") {
		t.Fatalf("a -faults run without a fault: %v, want it to fail naming member 1\n%s", err, out)
	}
	if !strings.Contains(out, "lost=[] ") {
		t.Errorf("unexpected summary:\n%s", out)
	}
}

func TestElasticJoinAndDrain(t *testing.T) {
	out, err := bfrun(t, "-case", "mergetree", "-elastic", "-ranks", "2", "-join", "1", "-join-after", "100ms",
		"-drain", "1", "-drain-after", "300ms", "-journal", t.TempDir(), "-wire-tier", "tcp")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "wire-elastic mergetree") || !strings.Contains(out, "sinks=8/8 match-serial=true") {
		t.Errorf("unexpected summary:\n%s", out)
	}
}

// TestElasticDrainOfLastMemberRefused asks a one-member elastic run to
// drain its only member mid-run. The roster refuses the drain, as the
// in-process Membership does, so the run neither fences nor drains and
// still matches serial.
func TestElasticDrainOfLastMemberRefused(t *testing.T) {
	out, err := bfrun(t, "-case", "mergetree", "-elastic", "-ranks", "1", "-drain", "0", "-drain-after", "100ms")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	m := regexp.MustCompile(`drain=0 epochs=1 fences=0 (\S+) +sinks=8/8 match-serial=true`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("unexpected summary:\n%s", out)
	}
	// The request must have landed while the epoch ran.
	if d, err := time.ParseDuration(m[1]); err != nil || d < 100*time.Millisecond {
		t.Fatalf("the run took %s, so the drain request never reached it", m[1])
	}
}

func TestJudge(t *testing.T) {
	sinks := map[core.TaskId][]core.Payload{
		3: {core.Buffer([]byte("three"))},
		7: {core.Buffer([]byte("seven")), core.Buffer([]byte("seven'"))},
	}
	want, err := digestSet(sinks)
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := digestLines(sinks)
	report := func(lines []string) string {
		return "noise\nBFWIRE member=0 epochs=1\n" + strings.Join(lines, "\n") + "\n"
	}
	tampered := append([]string(nil), lines...)
	tampered[1] = tampered[1][:len(tampered[1])-1] + "0"
	if tampered[1] == lines[1] {
		tampered[1] = lines[1][:len(lines[1])-1] + "1"
	}

	for _, tc := range []struct {
		name    string
		stdout  []string // one per worker
		failed  int
		matches int
		ok      bool
	}{
		{"exact", []string{report(lines)}, 0, 3, true},
		{"split over workers, duplicates", []string{report(lines[:2]), report(lines[1:])}, 0, 3, true},
		{"tampered sink", []string{report(tampered)}, 0, 2, false},
		{"missing sink", []string{report(lines[:2])}, 0, 2, false},
		{"extra sink", []string{report(append(lines[:3:3], "BFWIRE sink 9 0 abcd"))}, 0, 3, false},
		{"failed worker", []string{report(lines)}, 1, 3, false},
	} {
		got := tally{sinks: map[string]bool{}, failed: tc.failed}
		for _, s := range tc.stdout {
			got.scan(s)
		}
		matches, ok := judge(want, got.sinks, got.failed)
		if matches != tc.matches || ok != tc.ok {
			t.Errorf("%s: judge = (%d, %v), want (%d, %v)", tc.name, matches, ok, tc.matches, tc.ok)
		}
		if len(got.records) != len(tc.stdout) {
			t.Errorf("%s: %d tagged records, want one BFWIRE member line per worker", tc.name, len(got.records))
		}
	}
}

// TestFleetKillLeavesNoChild closes a fleet whose workers are waiting on a
// gate that accepts their dials and never answers — the state a parent's
// error path leaves them in — and checks every child is gone and reaped.
func TestFleetKillLeavesNoChild(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var f fleet
	for i := 0; i < 2; i++ {
		if err := f.fork("-case", "register", "-ranks", "3", "-wire-gate", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	// Both workers are at the gate once it has accepted both dials.
	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	for i := 0; i < 2; i++ {
		select {
		case c := <-accepted:
			defer c.Close()
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of 2 workers dialed the gate within 30 s", i)
		}
	}
	for _, w := range f.workers {
		if err := w.cmd.Process.Signal(syscall.Signal(0)); err != nil {
			t.Fatalf("worker %d exited on its own before the fleet was closed: %v", w.cmd.Process.Pid, err)
		}
	}
	f.kill()
	for _, w := range f.workers {
		if w.cmd.ProcessState == nil {
			t.Errorf("worker %d was not reaped", w.cmd.Process.Pid)
		}
		if err := syscall.Kill(w.cmd.Process.Pid, 0); err != syscall.ESRCH {
			t.Errorf("worker %d still exists after kill: %v", w.cmd.Process.Pid, err)
		}
	}
	if err := f.fork("-case", "register"); err == nil {
		t.Error("a closed fleet still forks")
	}
	f.kill() // idempotent
}

// TestElasticDeadMemberFailsRun SIGKILLs the only worker of an elastic run
// mid-epoch. No survivor is left to report a failure, so the coordinator
// must act on the gate's gone event and fail the run, naming the member,
// instead of waiting forever for a status that will never come.
func TestElasticDeadMemberFailsRun(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("finding the forked worker needs /proc")
	}
	done := make(chan error, 1)
	go func() {
		_, err := bfrun(t, "-case", "mergetree", "-elastic", "-ranks", "1", "-elastic-pace", "1s")
		done <- err
	}()
	pid := joinedWorker(t)
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "member 0") {
			t.Fatalf("run after its only member died: %v, want an error naming member 0", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the coordinator outlived its only member by 10 s")
	}
}

// TestElasticSurvivesKilledMember SIGKILLs one of two workers of a paced
// elastic run mid-epoch. The parent must treat the gate's gone event as a
// loss, evict the member and finish on the survivor, matching serial.
func TestElasticSurvivesKilledMember(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("finding the forked worker needs /proc")
	}
	var out string
	done := make(chan error, 1)
	go func() {
		var err error
		out, err = bfrun(t, "-case", "mergetree", "-elastic", "-ranks", "2", "-elastic-pace", "100ms")
		done <- err
	}()
	if err := syscall.Kill(joinedWorker(t), syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after one of two members died: %v\n%s", err, out)
		}
		m := regexp.MustCompile(`epochs=(\d+) fences=0 \S+ +sinks=8/8 match-serial=true`).FindStringSubmatch(out)
		if m == nil || m[1] == "1" {
			t.Fatalf("want a recovery epoch and sinks matching serial:\n%s", out)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the run outlived its killed member by 60 s")
	}
}

// joinedWorker waits for a -wire-gate child of this process to hold a
// socket (its gate session) and returns its pid once the join has had time
// to be admitted. Nothing outside the two processes shows the admission
// itself, which follows the dial within milliseconds, so it gets 300 ms;
// the paced epoch the worker then runs lasts seconds.
func joinedWorker(t *testing.T) int {
	t.Helper()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no -wire-gate worker joined within 10 s")
		case <-tick.C:
		}
		procs, _ := filepath.Glob("/proc/[0-9]*")
		for _, p := range procs {
			stat, err := os.ReadFile(p + "/stat")
			cmd, _ := os.ReadFile(p + "/cmdline")
			// The parent pid is the second field after the parenthesized
			// command name.
			end := bytes.LastIndexByte(stat, ')')
			if err != nil || end < 0 || !bytes.Contains(cmd, []byte("-wire-gate")) {
				continue
			}
			if f := strings.Fields(string(stat[end+1:])); len(f) < 2 || f[1] != strconv.Itoa(os.Getpid()) {
				continue
			}
			fds, _ := filepath.Glob(p + "/fd/*")
			for _, fd := range fds {
				if link, _ := os.Readlink(fd); strings.HasPrefix(link, "socket:") {
					<-time.After(300 * time.Millisecond)
					pid, _ := strconv.Atoi(filepath.Base(p))
					return pid
				}
			}
		}
	}
}
