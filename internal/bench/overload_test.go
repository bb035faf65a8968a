package bench

import (
	"testing"

	"repro/internal/workload"
)

// TestOverloadSweepDeterministicAcrossWorkers: the overload sweep's virtual
// results — goodput, shed/retry/expired counts, checksums, percentiles —
// must be bit-identical for any -j worker count. A trimmed sweep (two
// loads, two policies, plus the faulted points) keeps the test fast while
// still covering the retry, nack, and fault paths.
func TestOverloadSweepDeterministicAcrossWorkers(t *testing.T) {
	sw := OverloadSweep{
		Loads:      []OverloadLoad{{"1x", 160_000}, {"4x", 40_000}},
		Admissions: []workload.AdmissionPolicy{workload.AdmitQueue, workload.AdmitDeadline},
		FaultSeed:  OverloadFaultSeed,
	}
	checkAcrossWorkers(t, func(j int) ([]OverloadPoint, error) {
		return MeasureOverload(sw, j, nil), nil
	})
}

// TestOverloadGracefulDegradation pins the sweep's acceptance property on
// both machines: past saturation the deadline policy's goodput plateaus
// (it retains most of its peak) while the no-control baseline collapses
// (its unbounded queue turns every completion into an SLO miss), and at
// the top load the controlled policy strictly beats no-control.
func TestOverloadGracefulDegradation(t *testing.T) {
	sw := DefaultOverloadSweep()
	sw.Admissions = []workload.AdmissionPolicy{workload.AdmitNone, workload.AdmitDeadline}
	sw.FaultSeed = 0
	pts := MeasureOverload(sw, 4, nil)

	peak := map[string]float64{}
	top := map[string]float64{}
	for _, p := range pts {
		k := p.Machine + "/" + p.Admission
		if g := goodputRate(p.GoodSLO, p.VirtualMs); g > peak[k] {
			peak[k] = g
		}
		if p.Load == "4x" {
			top[k] = goodputRate(p.GoodSLO, p.VirtualMs)
		}
	}
	for _, m := range []string{"amd48", "intel32"} {
		none, deadline := m+"/none", m+"/deadline"
		if top[deadline] <= top[none] {
			t.Errorf("%s at 4x load: deadline goodput %.2f/us <= no-control %.2f/us", m, top[deadline], top[none])
		}
		if ratio := top[deadline] / peak[deadline]; ratio < 0.6 {
			t.Errorf("%s: deadline goodput fell to %.0f%% of peak at 4x load — want a plateau (>= 60%%)", m, ratio*100)
		}
		if ratio := top[none] / peak[none]; ratio > 0.55 {
			t.Errorf("%s: no-control goodput still %.0f%% of peak at 4x load — the baseline should collapse (<= 55%%)", m, ratio*100)
		}
	}
}
