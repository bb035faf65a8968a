package bench

import "testing"

// checkAcrossWorkers measures a sweep at -j 1 and -j 4 and fails on any
// point whose virtual fields differ: every sweep's results must be
// bit-identical for any worker count. It returns the serial points.
func checkAcrossWorkers[P interface {
	comparable
	Key() string
}](t *testing.T, measure func(workers int) ([]P, error)) []P {
	t.Helper()
	serial, err := measure(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := measure(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !VirtualEq(serial[i], parallel[i]) {
			t.Errorf("%s differs across worker counts:\n  -j1: %+v\n  -j4: %+v", serial[i].Key(), serial[i], parallel[i])
		}
	}
	return serial
}

// TestFailoverSweepDeterministicAcrossWorkers: the default failover sweep —
// crash-free replication ladder, single-vproc kills, the hedged point and
// the rack256 board kills — is bit-identical at any -j.
func TestFailoverSweepDeterministicAcrossWorkers(t *testing.T) {
	checkAcrossWorkers(t, func(j int) ([]FailoverPoint, error) {
		return MeasureFailover(DefaultFailoverSweep(), j, nil)
	})
}

// TestScaleSweepDeterministicAcrossWorkers: the default rack-scale sweep —
// makespans and the traffic split, far tier included — is bit-identical at
// any -j.
func TestScaleSweepDeterministicAcrossWorkers(t *testing.T) {
	checkAcrossWorkers(t, func(j int) ([]ScalePoint, error) {
		return MeasureScale(DefaultScaleSweep(), j, nil)
	})
}

// TestVirtualEqIgnoresWallTime: the generic equality excludes exactly the
// host wall time.
func TestVirtualEqIgnoresWallTime(t *testing.T) {
	a := FigurePoint{Figure: 5, Benchmark: "dmm", VirtualMs: 1.5, WallNs: 10}
	b := a
	b.WallNs = 20
	if !VirtualEq(a, b) {
		t.Error("points differing only in WallNs compare unequal")
	}
	b.VirtualMs = 1.25
	if VirtualEq(a, b) {
		t.Error("points differing in VirtualMs compare equal")
	}
}
