// The fleet helper: everything the gate parent (every multi-process mode)
// and the fault-injected runs share — the wanted digest set from the serial
// reference, forking a worker, collecting the workers' BFWIRE lines, and the
// one rule that says whether the collected sinks match the reference.
package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/usecase"
)

// digestLines renders sink outputs as sorted, parseable digest lines — what
// a worker prints and what a parent compares.
func digestLines(out map[core.TaskId][]core.Payload) ([]string, error) {
	var lines []string
	for id, ps := range out {
		for slot, p := range ps {
			w, err := p.Wire()
			if err != nil {
				return nil, fmt.Errorf("sink %d/%d: %w", id, slot, err)
			}
			lines = append(lines, fmt.Sprintf("BFWIRE sink %d %d %x", id, slot, sha256.Sum256(w)))
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// printSinks is the worker's report: one digest line per local sink payload.
func printSinks(stdout io.Writer, out map[core.TaskId][]core.Payload) error {
	lines, err := digestLines(out)
	for _, line := range lines {
		fmt.Fprintln(stdout, line)
	}
	return err
}

// digestSet is digestLines as a set.
func digestSet(out map[core.TaskId][]core.Payload) (map[string]bool, error) {
	lines, err := digestLines(out)
	set := make(map[string]bool, len(lines))
	for _, line := range lines {
		set[line] = true
	}
	return set, err
}

// referenceDigests runs the case on the serial reference controller
// (consuming c.Initial) and returns the digest lines a run must reproduce.
func referenceDigests(c usecase.Case) (map[string]bool, error) {
	ref, err := usecase.Reference(c)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	return digestSet(ref)
}

// judge is the verification rule: every wanted sink digest was produced,
// nothing else was, and no worker failed.
func judge(want, got map[string]bool, failed int) (matches int, ok bool) {
	for line := range got {
		if want[line] {
			matches++
		}
	}
	return matches, matches == len(want) && len(got) == len(want) && failed == 0
}

// fleet is the set of worker processes a parent forked. The zero value is
// ready; fork is safe to call from several goroutines (elastic joiners are
// forked from a timer). Every parent defers kill, so no error path leaves a
// worker behind waiting for a rendezvous that will never happen.
type fleet struct {
	mu      sync.Mutex
	workers []*worker
	closed  bool
}

type worker struct {
	cmd *exec.Cmd
	out bytes.Buffer
}

// fork starts this binary again with args as a worker: stdout captured for
// wait to scan, stderr passed through.
func (f *fleet) fork(args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("fork: fleet already closed")
	}
	w := &worker{cmd: exec.Command(self, args...)}
	w.cmd.Stdout = &w.out
	w.cmd.Stderr = os.Stderr
	if err := w.cmd.Start(); err != nil {
		return fmt.Errorf("fork worker %d: %w", len(f.workers), err)
	}
	f.workers = append(f.workers, w)
	return nil
}

// tally is what a finished fleet reported on stdout.
type tally struct {
	sinks   map[string]bool // distinct "BFWIRE sink" lines
	records []string        // every other BFWIRE line but "joined", in worker order
	failed  int             // workers that exited non-zero, evicted members aside
}

// wait blocks until every forked worker has exited and collects their
// BFWIRE lines. A worker whose member is in lost was evicted: its death
// was expected, so its exit status is neither reported nor a failure.
func (f *fleet) wait(lost []core.ShardId) tally {
	f.mu.Lock()
	workers := f.workers
	f.mu.Unlock()
	t := tally{sinks: make(map[string]bool)}
	for i, w := range workers {
		err := w.cmd.Wait()
		if member := t.scan(w.out.String()); err != nil && !slices.Contains(lost, core.ShardId(member)) {
			fmt.Fprintf(os.Stderr, "bfrun: worker %d exited: %v\n", i, err)
			t.failed++
		}
	}
	return t
}

// scan files one worker's stdout into the tally and returns the member the
// worker joined as, or -1 if it never joined.
func (t *tally) scan(stdout string) (member int) {
	member = -1
	for _, line := range strings.Split(stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "BFWIRE sink"):
			t.sinks[line] = true
		case strings.HasPrefix(line, "BFWIRE joined "):
			fmt.Sscanf(line, "BFWIRE joined member=%d", &member)
		case strings.HasPrefix(line, "BFWIRE "):
			t.records = append(t.records, line)
		}
	}
	return member
}

// kill stops and reaps every worker that has not been waited for, and
// refuses further forks. A no-op after wait.
func (f *fleet) kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for _, w := range f.workers {
		if w.cmd.ProcessState == nil {
			w.cmd.Process.Kill()
			w.cmd.Wait()
		}
	}
}
