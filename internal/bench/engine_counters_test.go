package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// TestEngineWorkCounters pins the engine's host-work counters for the
// BENCH_v3 point Figure 7 barnes-hut at p=48 (amd48, single-node placement,
// the baseline's scale and default seed). The counters are a pure function
// of the schedule, so a change that makes the engine do more host work for
// the same simulation — more inline turns, handoffs, parks or wakes — fails
// here bit-exactly, however noisy the wall clock.
func TestEngineWorkCounters(t *testing.T) {
	topo, err := numa.Preset("amd48")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(topo, 48)
	cfg.Policy = mempage.PolicySingleNode
	rt := core.MustNewRuntime(cfg)
	spec, err := workload.ByName("barnes-hut")
	if err != nil {
		t.Fatal(err)
	}
	res := spec.Run(rt, 0.25)
	if res.ElapsedNs != 2259873 {
		t.Fatalf("makespan %d ns, want 2259873 (BENCH_v3: 2.2599 virtual ms)", res.ElapsedNs)
	}
	want := vtime.Stats{InlineTurns: 273542, Handoffs: 6034, Parks: 418, Wakes: 519}
	if got := rt.Eng.Stats(); got != want {
		t.Errorf("engine counters %+v, want %+v", got, want)
	}
}

// TestEngineWorkCountersServing pins the same counters for the LATENCY_v2
// point amd48 local p=48 concurrent low-load: a serving run whose engine
// cost is dominated by handoffs between vprocs (the concurrent mark keeps
// idle vprocs polling instead of parked), so a change to how the token
// moves between procs must leave every count here untouched.
func TestEngineWorkCountersServing(t *testing.T) {
	topo, err := numa.Preset("amd48")
	if err != nil {
		t.Fatal(err)
	}
	cfg := LatencyConfig(topo, mempage.PolicyLocal, 48)
	cfg.ConcurrentGlobal = true
	rt := core.MustNewRuntime(cfg)
	res := workload.RunLatency(rt, LatencyOptionsFor(400_000))
	if res.ElapsedNs != 3103541 || res.Check != 7349150747183390776 {
		t.Fatalf("makespan %d ns, check %d; want 3103541, 7349150747183390776 (LATENCY_v2: 3.103541 virtual ms)",
			res.ElapsedNs, res.Check)
	}
	want := vtime.Stats{InlineTurns: 38542, Handoffs: 66236, Parks: 842, Wakes: 12918}
	if got := rt.Eng.Stats(); got != want {
		t.Errorf("engine counters %+v, want %+v", got, want)
	}
}
