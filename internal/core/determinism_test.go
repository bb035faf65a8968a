package core_test

// Determinism regression: the virtual-time engine contract is that a given
// workload/configuration produces bit-identical virtual results on every
// run, no matter how the Go scheduler interleaves the underlying goroutines.
// This guards the engine's horizon fast path, ready-heap scheduling, and
// inline-step optimizations (and any future perf work): those may only ever
// change wall-clock time, never virtual time.
//
// The test lives in package core_test because the workloads import core.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

type runResult struct {
	elapsedNs int64
	makespan  int64
	check     uint64
	global    core.RTStats
	perVProc  []core.VPStats
}

func runWorkloadOnce(t *testing.T, topo *numa.Topology, name string, nv int, policy mempage.Policy, scale float64) runResult {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(topo, nv)
	cfg.Policy = policy
	rt := core.MustNewRuntime(cfg)
	res := spec.Run(rt, scale)
	out := runResult{
		elapsedNs: res.ElapsedNs,
		makespan:  rt.Eng.MaxClock(),
		check:     res.Check,
		global:    rt.Stats,
	}
	for _, vp := range rt.VProcs {
		out.perVProc = append(out.perVProc, vp.Stats)
	}
	return out
}

// TestDeterministicRerun runs the same workload/config twice and asserts
// bit-identical makespan, workload result, and per-vproc statistics.
func TestDeterministicRerun(t *testing.T) {
	cases := []struct {
		topo   func() *numa.Topology
		name   string
		nv     int
		policy mempage.Policy
		scale  float64
	}{
		{numa.AMD48, "quicksort", 8, mempage.PolicyLocal, 0.25},
		{numa.AMD48, "barnes-hut", 16, mempage.PolicySingleNode, 0.125},
		{numa.AMD48, "synthetic", 8, mempage.PolicyInterleaved, 2},
		// Channel-heavy: rendezvous handoffs, parked continuations, and
		// lazy message promotion must all reschedule identically.
		{numa.AMD48, "server", 12, mempage.PolicyLocal, 1},
		{numa.AMD48, "server", 8, mempage.PolicyInterleaved, 0.5},
		// Timer-heavy: the open-loop traffic harness drives thousands of
		// virtual-time timers through the clamped idle machines; firing
		// instants and the resulting latencies must be bit-identical.
		{numa.AMD48, "latency", 16, mempage.PolicyLocal, 0.5},
		{numa.AMD48, "latency", 8, mempage.PolicyInterleaved, 0.25},
		// Crash-heavy: the replicated serving harness kills a lane-home
		// vproc mid-run, so barrier drops, crashed-heap adoption, owned-
		// channel SendCrashed wakeups, and lost-work accounting must all
		// replay identically.
		{numa.AMD48, "failover", 12, mempage.PolicyLocal, 0.5},
		{numa.AMD48, "failover", 8, mempage.PolicyInterleaved, 0.25},
		// Boarded rack topology: idle sweeps over 64 vprocs cross the
		// inter-board far tier.
		{numa.Rack256, "quicksort", 64, mempage.PolicySingleNode, 0.125},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a := runWorkloadOnce(t, tc.topo(), tc.name, tc.nv, tc.policy, tc.scale)
			b := runWorkloadOnce(t, tc.topo(), tc.name, tc.nv, tc.policy, tc.scale)
			if a.elapsedNs != b.elapsedNs {
				t.Errorf("elapsed diverged: %d vs %d", a.elapsedNs, b.elapsedNs)
			}
			if a.makespan != b.makespan {
				t.Errorf("makespan diverged: %d vs %d", a.makespan, b.makespan)
			}
			if a.check != b.check {
				t.Errorf("workload check diverged: %#x vs %#x", a.check, b.check)
			}
			if a.global != b.global {
				t.Errorf("runtime stats diverged:\n  %+v\n  %+v", a.global, b.global)
			}
			for i := range a.perVProc {
				if a.perVProc[i] != b.perVProc[i] {
					t.Errorf("vproc %d stats diverged:\n  %+v\n  %+v", i, a.perVProc[i], b.perVProc[i])
				}
			}
		})
	}
}
