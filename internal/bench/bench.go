// Package bench regenerates the paper's evaluation artifacts: the speedup
// figures (4-7) and the bandwidth table (Table 1). A figure is a sweep of a
// benchmark suite over thread counts on one machine under one page-placement
// policy; speedups are plotted relative to single-vproc performance, with
// Figures 6 and 7 normalized to Figure 5's baseline exactly as in §4.3
// ("These speedup graphs are both plotted relative to the single-processor
// performance for the AMD machine in Figure 5").
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// IntelThreads are the x-axis points of Figure 4.
var IntelThreads = []int{1, 4, 8, 12, 16, 24, 32}

// AMDThreads are the x-axis points of Figures 5-7.
var AMDThreads = []int{1, 4, 8, 12, 24, 36, 48}

// FigureBenchmarks are the five benchmarks of Figures 4-7, in legend order.
var FigureBenchmarks = []string{"dmm", "raytracer", "quicksort", "barnes-hut", "smvm"}

// ServerFigureID labels the server-workload sweep (not a paper figure).
const ServerFigureID = 8

// Series is one benchmark's speedup curve.
type Series struct {
	Benchmark string
	Threads   []int
	ElapsedNs []int64
	Speedup   []float64
}

// Figure is a full sweep.
type Figure struct {
	ID       int
	Machine  string
	Policy   mempage.Policy
	Series   []Series
	Baseline map[string]int64 // 1-thread elapsed per benchmark
}

// Options configures a sweep.
type Options struct {
	Scale float64
	Seed  uint64
	// BaselineNs, if non-nil, supplies the 1-thread reference times
	// (used by Figures 6-7, which normalize to Figure 5's baseline).
	BaselineNs map[string]int64
	// Benchmarks restricts the suite (default: FigureBenchmarks).
	Benchmarks []string
	// Progress, if set, receives a line per completed run. With parallel
	// workers, lines stream in completion order (calls are serialized).
	Progress func(string)
	// Workers bounds how many sweep points run concurrently; 0 means
	// GOMAXPROCS. Every point owns an independent deterministic
	// core.Runtime, so results are identical for any worker count.
	Workers int
}

// kernelRuntime builds a compute-kernel point's runtime: the machine's
// default configuration under policy, at an explicit seed when nonzero.
func kernelRuntime(topo *numa.Topology, policy mempage.Policy, nv int, seed uint64) *core.Runtime {
	cfg := core.DefaultConfig(topo, nv)
	cfg.Policy = policy
	if seed != 0 {
		cfg.Seed = seed
	}
	return core.MustNewRuntime(cfg)
}

// Sweep runs the suite over the thread counts on a machine/policy. The
// (benchmark, thread-count) points are independent, so they run on
// opt.Workers sweep workers (0 means GOMAXPROCS); results are collected
// positionally, making the figure identical for any worker count.
func Sweep(topo *numa.Topology, policy mempage.Policy, threads []int, opt Options) Figure {
	benches := opt.Benchmarks
	if benches == nil {
		benches = FigureBenchmarks
	}
	scale := opt.Scale
	if scale == 0 {
		scale = 1
	}
	type point struct {
		bench     string
		threads   int
		elapsedNs int64
		WallNs    int64 // the runner's host timing; unreported
	}
	var pts []point
	for _, b := range benches {
		for _, nv := range threads {
			pts = append(pts, point{bench: b, threads: nv})
		}
	}
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runSweep(pts, workers, opt.Progress, func(pt *point) func() {
		spec := must(workload.ByName(pt.bench))
		rt := kernelRuntime(topo, policy, pt.threads, opt.Seed)
		return func() { pt.elapsedNs = spec.Run(rt, scale).ElapsedNs }
	}, func(pt *point) string {
		return fmt.Sprintf("%s %s %s p=%d: %.3f ms", topo.Name, policy, pt.bench, pt.threads, float64(pt.elapsedNs)/1e6)
	})

	fig := Figure{Machine: topo.Name, Policy: policy, Baseline: map[string]int64{}}
	for bi, b := range benches {
		s := Series{Benchmark: b, Threads: threads}
		for _, pt := range pts[bi*len(threads) : (bi+1)*len(threads)] {
			s.ElapsedNs = append(s.ElapsedNs, pt.elapsedNs)
		}
		base := s.ElapsedNs[0]
		if v, ok := opt.BaselineNs[b]; ok {
			base = v
		}
		fig.Baseline[b] = base
		for _, e := range s.ElapsedNs {
			s.Speedup = append(s.Speedup, float64(base)/float64(e))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// RunFigure regenerates one of the paper's speedup figures (4, 5, 6 or 7).
// Figures 6 and 7 internally compute Figure 5's 1-thread baselines first so
// the normalization matches the paper.
func RunFigure(id int, opt Options) (Figure, error) {
	switch id {
	case 4:
		f := Sweep(numa.Intel32(), mempage.PolicyLocal, IntelThreads, opt)
		f.ID = 4
		return f, nil
	case 5:
		f := Sweep(numa.AMD48(), mempage.PolicyLocal, AMDThreads, opt)
		f.ID = 5
		return f, nil
	case 6, 7:
		// Baseline: 1-thread local-policy runs (Figure 5's origin).
		base := opt
		base.BaselineNs = nil
		ref := Sweep(numa.AMD48(), mempage.PolicyLocal, []int{1}, base)
		opt.BaselineNs = ref.Baseline
		policy := mempage.PolicyInterleaved
		if id == 7 {
			policy = mempage.PolicySingleNode
		}
		f := Sweep(numa.AMD48(), policy, AMDThreads, opt)
		f.ID = id
		return f, nil
	default:
		return Figure{}, fmt.Errorf("bench: no figure %d (want 4-7)", id)
	}
}

// RunServerFigures sweeps the message-passing server workload over both
// machine presets under all three page-placement policies — the "millions
// of users" traffic shape next to the paper's compute benchmarks. Each
// sweep is a Figure; results are deterministic for any worker count.
func RunServerFigures(opt Options) []Figure {
	opt.Benchmarks = []string{"server"}
	opt.BaselineNs = nil
	machines := []struct {
		topo    *numa.Topology
		threads []int
	}{
		{numa.AMD48(), AMDThreads},
		{numa.Intel32(), IntelThreads},
	}
	policies := []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}
	var out []Figure
	for _, m := range machines {
		for _, pol := range policies {
			f := Sweep(m.topo, pol, m.threads, opt)
			f.ID = ServerFigureID
			out = append(out, f)
		}
	}
	return out
}

// FigurePoint is one point of the fixed throughput suite that BENCH_v3.json
// records: a kernel's virtual makespan at one figure, policy and vproc
// count on the AMD machine. VirtualMs must stay bit-identical across engine
// changes; WallNs is the host wall clock of the run, the perf trajectory
// later changes compare against. Concurrent points share host cores, which
// inflates WallNs, so committed baselines are recorded with -j 1.
type FigurePoint struct {
	Figure    int     `json:"figure"`
	Benchmark string  `json:"benchmark"`
	Policy    string  `json:"policy"`
	Threads   int     `json:"threads"`
	VirtualMs float64 `json:"virtual_ms"`
	WallNs    int64   `json:"wall_ns"`
}

// Key identifies the point's configuration.
func (p FigurePoint) Key() string {
	return fmt.Sprintf("figure %d %s %s p=%d", p.Figure, p.Benchmark, p.Policy, p.Threads)
}

// FigurePointScale is the suite's workload scale, the one `go test -bench .`
// uses, so the suite's virtual makespans line up with the benchmark output.
const FigurePointScale = 0.25

// FigurePoints enumerates the suite: Figures 5-7 (AMD48 under the local,
// interleaved and single-node policies), the five kernels, p = 1, 24, 48.
func FigurePoints() []FigurePoint {
	figures := []struct {
		id     int
		policy mempage.Policy
	}{{5, mempage.PolicyLocal}, {6, mempage.PolicyInterleaved}, {7, mempage.PolicySingleNode}}
	var pts []FigurePoint
	for _, fig := range figures {
		for _, name := range FigureBenchmarks {
			for _, nv := range []int{1, 24, 48} {
				pts = append(pts, FigurePoint{Figure: fig.id, Benchmark: name, Policy: fig.policy.String(), Threads: nv})
			}
		}
	}
	return pts
}

// MeasureFigurePoints runs the suite on workers sweep workers.
func MeasureFigurePoints(workers int, progress func(string)) []FigurePoint {
	pts := FigurePoints()
	runSweep(pts, workers, progress, func(pt *FigurePoint) func() {
		spec := must(workload.ByName(pt.Benchmark))
		rt := kernelRuntime(numa.AMD48(), must(mempage.ParsePolicy(pt.Policy)), pt.Threads, 0)
		return func() { pt.VirtualMs = float64(spec.Run(rt, FigurePointScale).ElapsedNs) / 1e6 }
	}, func(pt *FigurePoint) string {
		return fmt.Sprintf("%s: %.4f virtual-ms", pt.Key(), pt.VirtualMs)
	})
	return pts
}

// RenderFigurePoints formats the suite as a table of virtual makespans.
func RenderFigurePoints(pts []FigurePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput suite: virtual makespans at scale %g\n", FigurePointScale)
	for _, p := range pts {
		fmt.Fprintf(&b, "%-34s %10.4f ms\n", p.Key(), p.VirtualMs)
	}
	return b.String()
}

// Render formats a figure as the text table the harness reports.
func (f Figure) Render() string {
	var b strings.Builder
	title := map[int]string{
		4: "Figure 4: speedups, Intel 32-core, local allocation",
		5: "Figure 5: speedups, AMD 48-core, local allocation",
		6: "Figure 6: speedups, AMD 48-core, interleaved allocation",
		7: "Figure 7: speedups, AMD 48-core, socket-zero allocation",
	}[f.ID]
	if title == "" {
		if f.ID == ServerFigureID {
			title = fmt.Sprintf("Server workload: %s, %s allocation", f.Machine, f.Policy)
		} else {
			title = fmt.Sprintf("Sweep: %s, %s allocation", f.Machine, f.Policy)
		}
	}
	fmt.Fprintf(&b, "%s\n", title)
	if len(f.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s", "threads")
	for _, nv := range f.Series[0].Threads {
		fmt.Fprintf(&b, "%8d", nv)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-12s", s.Benchmark)
		for _, sp := range s.Speedup {
			fmt.Fprintf(&b, "%8.2f", sp)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SpeedupAt returns a series' speedup at a thread count.
func (f Figure) SpeedupAt(bench string, threads int) (float64, bool) {
	for _, s := range f.Series {
		if s.Benchmark != bench {
			continue
		}
		for i, nv := range s.Threads {
			if nv == threads {
				return s.Speedup[i], true
			}
		}
	}
	return 0, false
}

// SortedBenchmarks lists the series names.
func (f Figure) SortedBenchmarks() []string {
	var out []string
	for _, s := range f.Series {
		out = append(out, s.Benchmark)
	}
	sort.Strings(out)
	return out
}
