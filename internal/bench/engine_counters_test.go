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
