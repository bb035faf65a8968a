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
	"sync"

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

// workers resolves the worker-pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runOne executes a benchmark at one configuration point.
func runOne(topo *numa.Topology, policy mempage.Policy, nv int, name string, opt Options) workload.Result {
	cfg := core.DefaultConfig(topo, nv)
	cfg.Policy = policy
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	rt := core.MustNewRuntime(cfg)
	spec, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	scale := opt.Scale
	if scale == 0 {
		scale = 1
	}
	return spec.Run(rt, scale)
}

// Sweep runs the suite over the thread counts on a machine/policy. The
// (benchmark, thread-count) points are independent — each owns its own
// deterministic Runtime — so they dispatch to a worker pool of
// opt.Workers goroutines; results are collected positionally, making the
// figure identical for any worker count.
func Sweep(topo *numa.Topology, policy mempage.Policy, threads []int, opt Options) Figure {
	benches := opt.Benchmarks
	if benches == nil {
		benches = FigureBenchmarks
	}

	type job struct{ bi, ti int }
	jobs := make(chan job)
	elapsed := make([][]int64, len(benches))
	for bi := range benches {
		elapsed[bi] = make([]int64, len(threads))
	}
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < opt.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				nv := threads[j.ti]
				b := benches[j.bi]
				res := runOne(topo, policy, nv, b, opt)
				elapsed[j.bi][j.ti] = res.ElapsedNs
				if opt.Progress != nil {
					progressMu.Lock()
					opt.Progress(fmt.Sprintf("%s %s %s p=%d: %.3f ms", topo.Name, policy, b, nv, float64(res.ElapsedNs)/1e6))
					progressMu.Unlock()
				}
			}
		}()
	}
	for bi := range benches {
		for ti := range threads {
			jobs <- job{bi, ti}
		}
	}
	close(jobs)
	wg.Wait()

	fig := Figure{Machine: topo.Name, Policy: policy, Baseline: map[string]int64{}}
	for bi, b := range benches {
		s := Series{Benchmark: b, Threads: threads, ElapsedNs: elapsed[bi]}
		base := s.ElapsedNs[0]
		if opt.BaselineNs != nil {
			if v, ok := opt.BaselineNs[b]; ok {
				base = v
			}
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
