package sim

import (
	"fmt"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/trace"
)

// ReplayWorkload turns a measured execution trace into a simulation
// workload: each task costs exactly its measured callback duration, and
// message sizes come from the caller (payload sizes are not recorded in
// spans). This enables the what-if studies the paper frames BabelFlow as a
// test bed for: record a real run once, then ask how the same work would
// fare under a different runtime's execution model or machine.
func ReplayWorkload(g core.TaskGraph, spans []trace.Span, msgBytes func(t core.Task, slot int) int) (Workload, error) {
	durations := make(map[core.TaskId]float64, len(spans))
	for _, s := range spans {
		durations[s.Task] = s.Duration().Seconds()
	}
	// Compiled here, once: every runtime model Execute replays the workload
	// under then runs on the same plan.
	plan, err := core.Compile(g)
	if err != nil {
		return Workload{}, err
	}
	for _, id := range plan.TaskIds() {
		if _, ok := durations[id]; !ok {
			return Workload{}, fmt.Errorf("sim: trace has no span for task %d", id)
		}
	}
	if msgBytes == nil {
		msgBytes = func(core.Task, int) int { return 0 }
	}
	return Workload{
		Graph:    plan,
		TaskCost: func(t core.Task) float64 { return durations[t.Id] },
		MsgBytes: msgBytes,
	}, nil
}

// WhatIf replays a trace under every runtime model on the given machine
// and returns the predicted makespans keyed by runtime name — "how would
// this exact execution have fared elsewhere".
func WhatIf(g core.TaskGraph, spans []trace.Span, msgBytes func(t core.Task, slot int) int, m Machine) (map[string]Result, error) {
	w, err := ReplayWorkload(g, spans, msgBytes)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Result)
	for _, r := range []RuntimeModel{MPI, OriginalMPI, Charm, LegionSPMD, LegionIL, Direct} {
		res, err := Execute(w, m, r)
		if err != nil {
			return nil, err
		}
		out[r.String()] = res
	}
	return out, nil
}
