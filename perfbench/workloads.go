package main

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// figureScale is the workload scale of the committed BENCH_v3.json points.
const figureScale = 0.25

// kernelScale sizes the kernels-p1 workload so that one pass lasts about a
// second on a 2-core host.
const kernelScale = 2.0

// A point is one simulation of a workload. build is the timed set-up
// (numa.Preset and core.NewRuntime); run drives the simulation and returns
// what the checks read.
type point struct {
	key   string
	build func(seed uint64) (*core.Runtime, error)
	run   func(rt *core.Runtime) outcome
	// oracle, when set, computes outside the timed window the checksum run
	// must return at a seed; points with one oracleKey share the result.
	oracleKey string
	oracle    func(seed uint64) (uint64, error)
}

// outcome is what one simulation produced.
type outcome struct {
	// virtual holds the point's virtual results in the record type of its
	// committed baseline, with host wall time zeroed, so == compares them.
	virtual any
	check   uint64
	// err reports a broken invariant: a request not resolved exactly once,
	// or a latency histogram that does not hold one sample per completion.
	err error
}

// A workloadDef is a fixed list of points, run one at a time in order.
type workloadDef struct {
	name      string
	points    func() ([]point, error)
	baselines []baselineSpec
	// post is the sweep post-processing a user of gcbench pays for after
	// the points: rendering the sweep's table. It is timed with the pass.
	post func(virtual []any)
}

var workloads = []workloadDef{
	{
		name:      "figures",
		points:    figuresPoints,
		baselines: []baselineSpec{{"BENCH_v3.json", baselineOf("", figureScale, figurePoint.Key)}},
	},
	{
		name:   "kernels-p1",
		points: kernelsP1Points,
	},
	{
		name:      "serving",
		points:    servingPoints,
		baselines: []baselineSpec{{"LATENCY_v2.json", baselineOf("latency ", 0, bench.LatencyPoint.Key)}},
		post: func(vs []any) {
			_ = bench.RenderLatency(collect[bench.LatencyPoint](vs))
		},
	},
	{
		name:   "pressure",
		points: pressurePoints,
		baselines: []baselineSpec{
			{"OVERLOAD_v1.json", baselineOf("overload ", 0, bench.OverloadPoint.Key)},
			{"MEMPRESSURE_v1.json", baselineOf("mempressure ", 0, bench.MempressurePoint.Key)},
			{"FAILOVER_v1.json", baselineOf("failover ", 0, bench.FailoverPoint.Key)},
		},
		post: func(vs []any) {
			_ = bench.RenderOverload(collect[bench.OverloadPoint](vs))
			_ = bench.RenderMempressure(bench.DefaultMempressureSweep(), collect[bench.MempressurePoint](vs))
			_ = bench.RenderFailover(collect[bench.FailoverPoint](vs))
		},
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// collect picks the records of one type out of a pass's virtual results.
func collect[P any](vs []any) []P {
	var out []P
	for _, v := range vs {
		if p, ok := v.(P); ok {
			out = append(out, p)
		}
	}
	return out
}

// --- Paper kernels ----------------------------------------------------------

// figurePoint is one BENCH_v3.json record: a kernel's virtual makespan at
// one figure, policy and vproc count on the AMD machine.
type figurePoint struct {
	Figure    int     `json:"figure"`
	Benchmark string  `json:"benchmark"`
	Policy    string  `json:"policy"`
	Threads   int     `json:"threads"`
	VirtualMs float64 `json:"virtual_ms"`
}

// Key identifies the point as gcbench's baseline gate does.
func (p figurePoint) Key() string {
	return fmt.Sprintf("figure %d %s %s p=%d", p.Figure, p.Benchmark, p.Policy, p.Threads)
}

// figuresPoints are the 45 BENCH_v3 points: Figures 5-7 (AMD48 under the
// local, interleaved and single-node policies), five kernels, p = 1, 24, 48.
func figuresPoints() ([]point, error) {
	figures := []struct {
		id     int
		policy mempage.Policy
	}{{5, mempage.PolicyLocal}, {6, mempage.PolicyInterleaved}, {7, mempage.PolicySingleNode}}
	var pts []point
	for _, fig := range figures {
		for _, name := range bench.FigureBenchmarks {
			for _, nv := range []int{1, 24, 48} {
				id := figurePoint{Figure: fig.id, Benchmark: name, Policy: fig.policy.String(), Threads: nv}
				pt, err := kernelPoint(id.Key(), id, "amd48", fig.policy, figureScale)
				if err != nil {
					return nil, err
				}
				pts = append(pts, pt)
			}
		}
	}
	return pts, nil
}

// kernelsP1Points are the five kernels at one vproc on both paper machines
// under the local policy, at kernelScale.
func kernelsP1Points() ([]point, error) {
	var pts []point
	for _, machine := range []string{"amd48", "intel32"} {
		for _, name := range bench.FigureBenchmarks {
			id := figurePoint{Benchmark: name, Policy: mempage.PolicyLocal.String(), Threads: 1}
			pt, err := kernelPoint(machine+" "+name+" p=1", id, machine, mempage.PolicyLocal, kernelScale)
			if err != nil {
				return nil, err
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// kernelPoint runs one paper kernel through its workload.Spec.
func kernelPoint(key string, id figurePoint, machine string, policy mempage.Policy, scale float64) (point, error) {
	spec, err := workload.ByName(id.Benchmark)
	if err != nil {
		return point{}, err
	}
	oracle, err := kernelOracle(id.Benchmark, scale)
	if err != nil {
		return point{}, err
	}
	return point{
		key: key,
		build: func(seed uint64) (*core.Runtime, error) {
			topo, err := numa.Preset(machine)
			if err != nil {
				return nil, err
			}
			cfg := core.DefaultConfig(topo, id.Threads)
			cfg.Policy = policy
			cfg.SpanWorkers = 1
			cfg.Seed = seed
			return core.NewRuntime(cfg)
		},
		run: func(rt *core.Runtime) outcome {
			res := spec.Run(rt, scale)
			v := id
			v.VirtualMs = float64(res.ElapsedNs) / 1e6
			return outcome{virtual: v, check: res.Check}
		},
		oracleKey: fmt.Sprintf("%s scale=%g", id.Benchmark, scale),
		oracle:    oracle,
	}, nil
}

// kernelOracle is a kernel's reference checksum at a seed: the sequential
// implementation where the workload package has one. Barnes-hut has none;
// its reference is the same seed's simulation on two vprocs, which every
// point must match, so each p>1 run agrees with the p=1 run.
func kernelOracle(name string, scale float64) (func(seed uint64) (uint64, error), error) {
	switch name {
	case "dmm":
		return func(uint64) (uint64, error) { return workload.DMMSeq(scale), nil }, nil
	case "raytracer":
		return func(uint64) (uint64, error) { return workload.RaytracerSeq(scale), nil }, nil
	case "quicksort":
		return func(seed uint64) (uint64, error) { return workload.QuicksortSeq(seed, scale), nil }, nil
	case "smvm":
		return func(uint64) (uint64, error) { return workload.SMVMSeq(scale), nil }, nil
	case "barnes-hut":
		return func(seed uint64) (uint64, error) {
			cfg := core.DefaultConfig(numa.AMD48(), 2)
			cfg.SpanWorkers = 1
			cfg.Seed = seed
			rt, err := core.NewRuntime(cfg)
			if err != nil {
				return 0, err
			}
			return workload.RunBarnesHut(rt, scale).Check, nil
		}, nil
	}
	return nil, fmt.Errorf("no reference for kernel %q", name)
}

// --- Serving ------------------------------------------------------------------

// servingPoints are the 24 LATENCY_v2 points: both collectors, both paper
// machines at full width, three policies, two offered loads.
func servingPoints() ([]point, error) {
	var pts []point
	for _, pt := range bench.LatencyPointsGC([]string{"", "concurrent"}) {
		pol, err := mempage.ParsePolicy(pt.Policy)
		if err != nil {
			return nil, err
		}
		opt := bench.LatencyOptionsFor(pt.MeanGapNs)
		pts = append(pts, point{
			key: "latency " + pt.Key(),
			build: func(seed uint64) (*core.Runtime, error) {
				topo, err := numa.Preset(pt.Machine)
				if err != nil {
					return nil, err
				}
				cfg := bench.LatencyConfig(topo, pol, pt.Threads)
				cfg.SpanWorkers = 1
				cfg.ConcurrentGlobal = pt.GC == "concurrent"
				cfg.Seed = seed
				return core.NewRuntime(cfg)
			},
			run: func(rt *core.Runtime) outcome {
				res := workload.RunLatency(rt, opt)
				v := pt
				v.VirtualMs = float64(res.ElapsedNs) / 1e6
				v.Check = res.Check
				v.P50Ns, v.P90Ns, v.P99Ns, v.P999Ns = res.P50, res.P90, res.P99, res.P999
				v.MeanNs = res.All.MeanNs
				v.GlobalMeanNs = res.All.Global.MeanNs
				v.LocalMeanNs = res.All.Local.MeanNs
				v.TailCount = res.Tail.Count
				v.TailMeanNs = res.Tail.MeanNs
				v.TailGlobalNs = res.Tail.Global.MeanNs
				v.TailLocalNs = res.Tail.Local.MeanNs
				v.TailGlobalMax = res.Tail.Global.MaxNs
				v.GlobalGCs = rt.Stats.GlobalGCs
				v.MarkAssistWords = res.Stats.MarkAssistWords
				v.MarkAssistNs = res.Stats.MarkAssistNs
				v.BarrierHits = res.Stats.BarrierHits
				v.BarrierNs = res.Stats.BarrierNs
				v.SnapshotStwNs = rt.Stats.SnapshotNs
				v.TermStwNs = rt.Stats.TermNs
				var iv invariants
				offered := int64(opt.Clients * opt.Requests)
				iv.eq("requests", int64(res.Requests), offered)
				iv.eq("histogram samples", res.Hist.N(), offered)
				return outcome{virtual: v, check: res.Check, err: iv.err()}
			},
			oracleKey: fmt.Sprintf("latency gap=%d", pt.MeanGapNs),
			oracle:    func(seed uint64) (uint64, error) { return workload.LatencySeq(seed, opt), nil },
		})
	}
	return pts, nil
}

// --- Pressure -----------------------------------------------------------------

// pressurePoints are the 30 OVERLOAD_v1, 20 MEMPRESSURE_v1 and 10
// FAILOVER_v1 points. Their checksums depend on the schedule, so they have
// no sequential oracle; exactly-once resolution is checked instead.
func pressurePoints() ([]point, error) {
	var pts []point
	for _, pt := range bench.OverloadPoints(bench.DefaultOverloadSweep()) {
		adm, err := workload.ParseAdmission(pt.Admission)
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{
			key:   "overload " + pt.Key(),
			build: pressureRuntime(pt.Machine, pt.Threads, 0),
			run: func(rt *core.Runtime) outcome {
				opt := bench.OverloadOptionsFor(pt.MeanGapNs)
				opt.Admission = adm
				if pt.FaultSeed != 0 {
					opt.Faults = bench.OverloadFaultPlan(pt.FaultSeed, pt.Threads)
				}
				res := workload.RunOverload(rt, opt)
				v := pt
				v.VirtualMs = float64(res.ElapsedNs) / 1e6
				v.Check = res.Check
				v.WindowNs = res.WindowNs
				v.Offered = res.Offered
				v.Completed = res.Completed
				v.GoodSLO = res.GoodSLO
				v.Expired = res.Expired
				v.ShedAdmission = res.ShedAdmission
				v.ShedFault = res.ShedFault
				v.Retries = res.Retries
				v.P50Ns, v.P99Ns = res.P50, res.P99
				v.GlobalGCs = rt.Stats.GlobalGCs
				return outcome{virtual: v, check: res.Check, err: overloadResolved(opt, res)}
			},
		})
	}
	msw := bench.DefaultMempressureSweep()
	for _, pt := range bench.MempressurePoints(msw) {
		adm, err := workload.ParseAdmission(pt.Admission)
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{
			key:   "mempressure " + pt.Key(),
			build: pressureRuntime(pt.Machine, pt.Threads, pt.Budget),
			run: func(rt *core.Runtime) outcome {
				opt := bench.OverloadOptionsFor(pt.MeanGapNs)
				opt.Admission = adm
				if pt.SqueezeSeed != 0 {
					opt.Faults = bench.MempressureFaultPlan(pt.SqueezeSeed, pt.Threads)
				}
				res := workload.RunOverload(rt, opt)
				v := pt
				v.VirtualMs = float64(res.ElapsedNs) / 1e6
				v.Check = res.Check
				v.WindowNs = res.WindowNs
				v.Offered = res.Offered
				v.Completed = res.Completed
				v.GoodSLO = res.GoodSLO
				v.Expired = res.Expired
				v.ShedAdmission = res.ShedAdmission
				v.ShedMemory = res.ShedMemory
				v.ShedFault = res.ShedFault
				v.Retries = res.Retries
				v.P50Ns, v.P99Ns = res.P50, res.P99
				mp := rt.MemPressure()
				v.GlobalGCs = rt.Stats.GlobalGCs
				v.EmergencyGCs = mp.EmergencyGCs
				v.AllocFailed = mp.AllocFailed
				v.Overdrafts = mp.Overdrafts
				v.SurvivedWords = mp.SurvivedWords
				return outcome{virtual: v, check: res.Check, err: overloadResolved(opt, res)}
			},
		})
	}
	fpts, err := bench.FailoverPoints(bench.DefaultFailoverSweep())
	if err != nil {
		return nil, err
	}
	for _, pt := range fpts {
		kind, err := workload.ParseCrashKind(pt.Crash)
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{
			key:   "failover " + pt.Key(),
			build: pressureRuntime(pt.Machine, pt.Threads, 0),
			run: func(rt *core.Runtime) outcome {
				opt := bench.FailoverOptionsFor(pt.Replicas, kind, pt.CrashNs, pt.HedgeDelayNs)
				res := workload.RunFailover(rt, opt)
				v := pt
				v.VirtualMs = float64(res.ElapsedNs) / 1e6
				v.Check = res.Check
				v.WindowNs = res.WindowNs
				v.Offered = res.Offered
				v.Completed = res.Completed
				v.GoodSLO = res.GoodSLO
				v.FailedDeadline = res.FailedDeadline
				v.LostClient = res.LostClient
				v.ShedMemory = res.ShedMemory
				v.OfferedPre, v.GoodPre, v.LostPre = res.OfferedPre, res.GoodPre, res.LostPre
				v.OfferedPost, v.GoodPost, v.LostPost = res.OfferedPost, res.GoodPost, res.LostPost
				v.Retries = res.Retries
				v.Rerouted = res.Rerouted
				v.Hedged, v.HedgeWins = res.Hedged, res.HedgeWins
				v.BreakerTrips = res.BreakerTrips
				v.FastFails = res.FastFails
				v.LateReplies = res.LateReplies
				v.Crashes = res.Crashes
				v.LostTasks = res.Stats.LostTasks
				v.LostConts = res.Stats.LostConts
				v.LostTimers = res.Stats.LostTimers
				v.P50Ns, v.P99Ns = res.P50, res.P99
				v.GlobalGCs = rt.Stats.GlobalGCs
				return outcome{virtual: v, check: res.Check, err: failoverResolved(opt, res)}
			},
		})
	}
	return pts, nil
}

// pressureRuntime builds the serving harnesses' GC-pressure runtime under
// the local policy, with a global chunk budget (0 = unbounded).
func pressureRuntime(machine string, nv, budget int) func(seed uint64) (*core.Runtime, error) {
	return func(seed uint64) (*core.Runtime, error) {
		topo, err := numa.Preset(machine)
		if err != nil {
			return nil, err
		}
		cfg := bench.LatencyConfig(topo, mempage.PolicyLocal, nv)
		cfg.GlobalBudgetChunks = budget
		cfg.SpanWorkers = 1
		cfg.Seed = seed
		return core.NewRuntime(cfg)
	}
}

// overloadResolved checks that every planned request of an overload or
// memory-pressure run resolved exactly once, and that the latency histogram
// holds one sample per completion.
func overloadResolved(opt workload.OverloadOptions, res workload.OverloadResult) error {
	var iv invariants
	iv.eq("offered", int64(res.Offered), int64(opt.Clients*opt.Requests))
	iv.eq("resolved", int64(res.Completed+res.Expired+res.ShedAdmission+res.ShedFault+res.ShedMemory), int64(res.Offered))
	iv.eq("histogram samples", res.Hist.N(), int64(res.Completed))
	iv.atMost("within SLO", int64(res.GoodSLO), int64(res.Completed))
	return iv.err()
}

// failoverResolved is overloadResolved for the failover harness, plus the
// pre/post-crash split adding up to the totals.
func failoverResolved(opt workload.FailoverOptions, res workload.FailoverResult) error {
	var iv invariants
	iv.eq("offered", int64(res.Offered), int64(opt.Clients*opt.Requests))
	iv.eq("resolved", int64(res.Completed+res.FailedDeadline+res.LostClient+res.ShedMemory), int64(res.Offered))
	iv.eq("histogram samples", res.Hist.N(), int64(res.Completed))
	iv.atMost("within SLO", int64(res.GoodSLO), int64(res.Completed))
	iv.eq("offered pre+post", int64(res.OfferedPre+res.OfferedPost), int64(res.Offered))
	iv.eq("good pre+post", int64(res.GoodPre+res.GoodPost), int64(res.GoodSLO))
	iv.eq("lost pre+post", int64(res.LostPre+res.LostPost), int64(res.LostClient))
	return iv.err()
}
