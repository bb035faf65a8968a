package main

// Baseline recording and comparison. Six baseline kinds share one
// write/compare mechanism: the throughput suite (BENCH_v*.json), the
// open-loop latency sweep (LATENCY_v*.json), the overload sweep
// (OVERLOAD_v*.json), the memory-pressure sweep (MEMPRESSURE_v*.json), the
// rack-scale sweep (SCALE_v*.json), and the failover sweep
// (FAILOVER_v*.json). Each kind provides a point type carrying its own
// identity (Key) and exact-equality contract (VirtualEq); the generic
// helpers own the JSON envelope, the point-by-point drift report, and the
// CI gate semantics (any virtual drift fails).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// sweepPoint is what a baseline kind's point type must provide: a
// configuration identity and bit-exact equality over the virtual
// (deterministic) fields, host wall time excluded.
type sweepPoint[P any] interface {
	Key() string
	VirtualEq(P) bool
}

// baselineFile is the shared on-disk envelope. Scale is only meaningful for
// the throughput baseline (the others have fixed workload shapes) and is
// omitted when zero, keeping the other kinds' files unchanged.
type baselineFile[P any] struct {
	Version   int     `json:"version"`
	Scale     float64 `json:"scale,omitempty"`
	GoVersion string  `json:"go_version"`
	Date      string  `json:"date"`
	Points    []P     `json:"points"`
}

// writeBaselineFile measures nothing itself: it wraps already-measured
// points in the envelope and writes them.
func writeBaselineFile[P any](path string, version int, scale float64, pts []P) error {
	out := baselineFile[P]{
		Version:   version,
		Scale:     scale,
		GoVersion: runtime.Version(),
		Date:      time.Now().UTC().Format("2006-01-02"),
		Points:    pts,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareBaselineFile parses the stored baseline, re-measures via measure,
// and fails on any drift in the virtual fields of any point — the CI gate
// that pins the simulation's deterministic results across PRs. The scale
// check rejects a baseline recorded at a different workload scale before
// spending any measurement time.
func compareBaselineFile[P sweepPoint[P]](path, label string, scale float64, measure func() ([]P, error)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want baselineFile[P]
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if want.Scale != scale {
		return fmt.Errorf("%s records scale %g; this binary measures scale %g", path, want.Scale, scale)
	}
	got, err := measure()
	if err != nil {
		return err
	}
	wantPts := make(map[string]P, len(want.Points))
	for _, p := range want.Points {
		wantPts[p.Key()] = p
	}
	drift := 0
	for _, p := range got {
		w, ok := wantPts[p.Key()]
		if !ok {
			fmt.Fprintf(os.Stderr, "gcbench: %s missing from %s\n", p.Key(), path)
			drift++
			continue
		}
		if !p.VirtualEq(w) {
			fmt.Fprintf(os.Stderr, "gcbench: %s drifted:\n  baseline %+v\n  got      %+v\n", p.Key(), w, p)
			drift++
		}
	}
	if len(got) != len(want.Points) {
		fmt.Fprintf(os.Stderr, "gcbench: point count differs: baseline %d, got %d\n", len(want.Points), len(got))
		drift++
	}
	if drift > 0 {
		return fmt.Errorf("%d %s point(s) drifted vs %s", drift, label, path)
	}
	fmt.Printf("gcbench: all %d %s points match %s\n", len(got), label, path)
	return nil
}

// --- Throughput baseline (BENCH_v3.json) ------------------------------------

// BaselinePoint is one benchmark/policy/thread-count measurement. VirtualMs
// is the simulation result (deterministic: it must stay bit-identical across
// engine changes); WallNs is the host wall-clock per run (machine-dependent:
// the perf trajectory later PRs compare against). With -j > 1, concurrent
// points share host cores, which inflates per-point WallNs; committed
// baselines are recorded with -j 1 so wall numbers stay comparable.
type BaselinePoint struct {
	Figure    int     `json:"figure"`
	Benchmark string  `json:"benchmark"`
	Policy    string  `json:"policy"`
	Threads   int     `json:"threads"`
	VirtualMs float64 `json:"virtual_ms"`
	WallNs    int64   `json:"wall_ns"`
}

// Key identifies the point's configuration.
func (p BaselinePoint) Key() string {
	return fmt.Sprintf("figure %d %s %s p=%d", p.Figure, p.Benchmark, p.Policy, p.Threads)
}

// VirtualEq compares the virtual result; wall time is host noise.
func (p BaselinePoint) VirtualEq(q BaselinePoint) bool {
	p.WallNs, q.WallNs = 0, 0
	return p == q
}

// baselineScale matches the benchScale used by `go test -bench .` so the
// virtual-ms values in the baseline line up with the benchmark output.
const baselineScale = 0.25

// baselineThreads are the fixed per-figure thread counts of the baseline.
var baselineThreads = []int{1, 24, 48}

// measureBaseline runs the fixed Figure 5-7 suite at p=1/24/48 on a worker
// pool and returns the points in deterministic order.
func measureBaseline(workers int) ([]BaselinePoint, error) {
	figures := []struct {
		id     int
		policy mempage.Policy
	}{
		{5, mempage.PolicyLocal},
		{6, mempage.PolicyInterleaved},
		{7, mempage.PolicySingleNode},
	}
	var pts []BaselinePoint
	for _, fig := range figures {
		for _, name := range bench.FigureBenchmarks {
			if _, err := workload.ByName(name); err != nil {
				return nil, err
			}
			for _, p := range baselineThreads {
				pts = append(pts, BaselinePoint{
					Figure:    fig.id,
					Benchmark: name,
					Policy:    fig.policy.String(),
					Threads:   p,
				})
			}
		}
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			topo := numa.AMD48()
			for i := range jobs {
				pt := &pts[i]
				pol, err := mempage.ParsePolicy(pt.Policy)
				if err != nil {
					panic(err)
				}
				spec, err := workload.ByName(pt.Benchmark)
				if err != nil {
					panic(err)
				}
				cfg := core.DefaultConfig(topo, pt.Threads)
				cfg.Policy = pol
				rt := core.MustNewRuntime(cfg)
				start := time.Now()
				res := spec.Run(rt, baselineScale)
				pt.WallNs = time.Since(start).Nanoseconds()
				pt.VirtualMs = float64(res.ElapsedNs) / 1e6
				fmt.Fprintf(os.Stderr, "figure %d %s %s p=%d: %.4f virtual-ms, %s wall\n",
					pt.Figure, pt.Benchmark, pt.Policy, pt.Threads, pt.VirtualMs, time.Duration(pt.WallNs))
			}
		}()
	}
	for i := range pts {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return pts, nil
}

// writeBaseline measures the fixed suite and writes the JSON baseline.
func writeBaseline(path string, workers int) error {
	pts, err := measureBaseline(workers)
	if err != nil {
		return err
	}
	return writeBaselineFile(path, 3, baselineScale, pts)
}

// compareBaseline re-measures the fixed suite and fails on any virtual_ms
// drift against the stored baseline.
func compareBaseline(path string, workers int) error {
	return compareBaselineFile(path, "virtual-time", baselineScale, func() ([]BaselinePoint, error) {
		return measureBaseline(workers)
	})
}

// --- Latency baselines (LATENCY_v1.json, LATENCY_v2.json) --------------------

// latencyBaselineVersion distinguishes the stw-only v1 matrix (12 points)
// from the both-collector v2 matrix (24 points, concurrent rows carrying the
// mark-assist/barrier/window attribution).
func latencyBaselineVersion(gcs []string) int {
	if len(gcs) == 1 && gcs[0] == "" {
		return 1
	}
	return 2
}

// writeLatencyBaseline measures the fixed latency sweep over the selected
// collector modes and writes the JSON baseline.
func writeLatencyBaseline(path string, gcs []string, workers int, progress func(string)) error {
	return writeBaselineFile(path, latencyBaselineVersion(gcs), 0, bench.MeasureLatencyGC(gcs, workers, progress))
}

// compareLatencyBaseline re-measures the fixed latency sweep and fails on
// any drift in the virtual fields (percentiles, attribution, checksums; for
// concurrent rows also the assist/barrier/STW-window accounting).
func compareLatencyBaseline(path string, gcs []string, workers int, progress func(string)) error {
	return compareBaselineFile(path, "latency", 0, func() ([]bench.LatencyPoint, error) {
		return bench.MeasureLatencyGC(gcs, workers, progress), nil
	})
}

// --- Overload baseline (OVERLOAD_v1.json) -----------------------------------

// writeOverloadBaseline measures the fixed overload sweep and writes the
// JSON baseline.
func writeOverloadBaseline(path string, workers int, progress func(string)) error {
	return writeBaselineFile(path, 1, 0, bench.MeasureOverload(bench.DefaultOverloadSweep(), workers, progress))
}

// compareOverloadBaseline re-measures the fixed overload sweep and fails on
// any drift in the virtual fields (goodput, shed/retry/expiry accounting,
// percentiles, checksums) — the graceful-degradation gate.
func compareOverloadBaseline(path string, workers int, progress func(string)) error {
	return compareBaselineFile(path, "overload", 0, func() ([]bench.OverloadPoint, error) {
		return bench.MeasureOverload(bench.DefaultOverloadSweep(), workers, progress), nil
	})
}

// --- Memory-pressure baseline (MEMPRESSURE_v1.json) --------------------------

// writeMempressureBaseline measures the fixed memory-pressure sweep and
// writes the JSON baseline.
func writeMempressureBaseline(path string, workers int, progress func(string)) error {
	return writeBaselineFile(path, 1, 0, bench.MeasureMempressure(bench.DefaultMempressureSweep(), workers, progress))
}

// compareMempressureBaseline re-measures the fixed memory-pressure sweep
// and fails on any drift in the virtual fields (goodput and shed
// accounting, emergency-GC/alloc-failure/overdraft counters, percentiles,
// checksums) — the heap-exhaustion graceful-degradation gate.
func compareMempressureBaseline(path string, workers int, progress func(string)) error {
	return compareBaselineFile(path, "memory-pressure", 0, func() ([]bench.MempressurePoint, error) {
		return bench.MeasureMempressure(bench.DefaultMempressureSweep(), workers, progress), nil
	})
}

// --- Rack-scale baseline (SCALE_v1.json) -------------------------------------

// writeScaleBaseline measures the fixed rack-scale sweep and writes the
// JSON baseline. The sweep's workload scale is recorded in the envelope so
// a mismatched binary fails before measuring.
func writeScaleBaseline(path string, workers int, progress func(string)) error {
	sw := bench.DefaultScaleSweep()
	pts, err := bench.MeasureScale(sw, workers, progress)
	if err != nil {
		return err
	}
	return writeBaselineFile(path, 1, sw.Scale, pts)
}

// compareScaleBaseline re-measures the fixed rack-scale sweep and fails on
// any drift in the virtual fields (makespans, checksums, and the
// local/same-package/remote/far traffic split) — the gate that pins the
// far-tier model on the largest topologies.
func compareScaleBaseline(path string, workers int, progress func(string)) error {
	sw := bench.DefaultScaleSweep()
	return compareBaselineFile(path, "rack-scale", sw.Scale, func() ([]bench.ScalePoint, error) {
		return bench.MeasureScale(sw, workers, progress)
	})
}

// --- Failover baseline (FAILOVER_v1.json) ------------------------------------

// writeFailoverBaseline measures the fixed failover sweep and writes the
// JSON baseline.
func writeFailoverBaseline(path string, workers int, progress func(string)) error {
	pts, err := bench.MeasureFailover(bench.DefaultFailoverSweep(), workers, progress)
	if err != nil {
		return err
	}
	return writeBaselineFile(path, 1, 0, pts)
}

// compareFailoverBaseline re-measures the fixed failover sweep and fails on
// any drift in the virtual fields (goodput before/after the crash, lost-work
// accounting, breaker/retry/hedge counters, percentiles, checksums) — the
// partial-failure graceful-degradation gate.
func compareFailoverBaseline(path string, workers int, progress func(string)) error {
	return compareBaselineFile(path, "failover", 0, func() ([]bench.FailoverPoint, error) {
		return bench.MeasureFailover(bench.DefaultFailoverSweep(), workers, progress)
	})
}
