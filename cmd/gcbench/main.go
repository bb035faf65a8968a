// Command gcbench regenerates the paper's evaluation figures: speedup
// sweeps of the five benchmarks over thread counts, machines, and page
// placement policies. Sweep points are independent deterministic
// simulations, so they run on a worker pool (-j); results are identical
// for any worker count.
//
// Usage:
//
//	gcbench -figure 5                 # regenerate Figure 5 (AMD, local)
//	gcbench -figure 4 -scale 0.5      # Figure 4 at half workload scale
//	gcbench -machine amd48 -policy interleaved -threads 1,8,48 -bench dmm
//	gcbench -all                      # Figures 4-7
//	gcbench -all -j 8                 # ... with 8 sweep workers
//	gcbench -server                   # message-passing server sweep (both machines, all policies)
//	gcbench -latency                  # open-loop latency sweep (tail latency under GC)
//	gcbench -overload                 # overload sweep (goodput/SLO vs offered load, faulted points)
//	gcbench -overload -loads 80000,40000 -admission deadline -fault-seed 7
//	gcbench -mempressure              # memory-pressure sweep (bounded heaps, emergency GC, memory-aware admission)
//	gcbench -mempressure -budgets 0,20,16 -admission memory
//	gcbench -rackscale                # rack-scale sweep (paper machines + rack256, traffic split)
//	gcbench -rackscale -machines rack256,rack1024 -scale 0.1
//	gcbench -failover                 # failover sweep (replicated serving under crash faults)
//	gcbench -failover -crash board -replicas 2,4
//	gcbench -baseline BENCH_v3.json   # record a perf baseline (JSON)
//	gcbench -compare BENCH_v3.json    # fail on any virtual-time drift
//	gcbench -latency -gc concurrent   # ... under the mostly-concurrent global collector
//	gcbench -latency -baseline LATENCY_v1.json   # record the latency baseline
//	gcbench -latency -compare LATENCY_v1.json    # latency drift gate
//	gcbench -latency -gc both -compare LATENCY_v2.json  # both-collector latency gate
//	gcbench -overload -compare OVERLOAD_v1.json  # overload drift gate
//	gcbench -mempressure -compare MEMPRESSURE_v1.json  # memory-pressure drift gate
//	gcbench -rackscale -compare SCALE_v1.json    # rack-scale drift gate
//	gcbench -failover -compare FAILOVER_v1.json  # failover drift gate
//	gcbench -figure 7 -cpuprofile cpu.out        # host CPU profile of a sweep
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/hostprof"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

func main() {
	var (
		figure    = flag.Int("figure", 0, "paper figure to regenerate (4-7)")
		all       = flag.Bool("all", false, "regenerate all figures (4-7)")
		server    = flag.Bool("server", false, "sweep the message-passing server workload (both machines, all three policies)")
		latency   = flag.Bool("latency", false, "sweep the open-loop latency harness: tail latency under GC with pause attribution (fixed configuration)")
		gcMode    = flag.String("gc", "stw", "with -latency: global collector(s) to sweep (stw, concurrent, both)")
		overload  = flag.Bool("overload", false, "sweep the overload harness: goodput/SLO vs offered load per admission policy, with faulted points")
		mempress  = flag.Bool("mempressure", false, "sweep the memory-pressure harness: bounded-heap budget ladder per admission policy, with squeeze-fault points")
		rackscale = flag.Bool("rackscale", false, "sweep the rack-scale harness: full-core-count makespans and NUMA traffic split on the paper machines and rack presets")
		failover  = flag.Bool("failover", false, "sweep the failover harness: replicated serving pools under injected crash faults (single-vproc kills, correlated board kill on rack256)")
		crashes   = flag.String("crash", "", "with -failover: comma-separated crash kinds (none, vproc, board; default: the fixed schedule)")
		replicas  = flag.String("replicas", "", "with -failover: comma-separated replication levels (default: the fixed 1-4 ladder)")
		machines  = flag.String("machines", "", "with -rackscale: comma-separated machine presets (amd48, intel32, rack256, rack1024, rack4096; default: the fixed amd48,intel32,rack256 set)")
		budgets   = flag.String("budgets", "", "with -mempressure: comma-separated global chunk budgets (0 = unbounded; default: the 0/32/24/16 ladder)")
		scale     = flag.Float64("scale", 1.0, "workload scale (1.0 = default reduced sizes)")
		machine   = flag.String("machine", "amd48", "machine preset for custom sweeps (amd48, intel32, rack256, rack1024, rack4096)")
		policy    = flag.String("policy", "local", "page placement policy (local, interleaved, single-node)")
		threads   = flag.String("threads", "", "comma-separated thread counts for custom sweeps")
		benches   = flag.String("bench", "", "comma-separated benchmark subset (default: the five paper benchmarks)")
		loads     = flag.String("loads", "", "with -overload: comma-separated mean inter-arrival gaps in virtual ns (default: the 0.4x/1x/2x/4x saturation ladder)")
		admission = flag.String("admission", "", "with -overload/-mempressure: comma-separated admission policies (none, queue, deadline, memory; default: that sweep's fixed set)")
		faultSeed = flag.Uint64("fault-seed", bench.OverloadFaultSeed, "with -overload: seed of the faulted top-load points; with -mempressure: seed of the squeeze points (0 disables them)")
		verbose   = flag.Bool("v", false, "print per-run progress")
		workers   = flag.Int("j", runtime.GOMAXPROCS(0), "sweep points to run concurrently (virtual results are identical for any value)")
		baseline  = flag.String("baseline", "", "write a perf-baseline JSON to this file (with -latency/-overload: that sweep's baseline)")
		compare   = flag.String("compare", "", "re-run the baseline configuration and fail on any virtual drift vs this JSON file")
		cpuProf   = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a host heap profile at the end of the run to this file")
	)
	flag.Parse()

	stopProf, err := hostprof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	// Up-front flag validation: a bad value must fail here with an
	// actionable message, not surface as a Config.Validate panic deep
	// inside a sweep — or worse, be silently clamped into a run that looks
	// like a real result (workload scaling clamps non-positive sizes to 1).
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fatal(fmt.Errorf("-scale %v is not a positive workload scale", *scale))
	}
	if *workers < 1 {
		fatal(fmt.Errorf("-j %d is not a positive worker count", *workers))
	}
	var benchNames []string
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			name := strings.TrimSpace(b)
			if _, err := workload.ByName(name); err != nil {
				fatal(err)
			}
			benchNames = append(benchNames, name)
		}
	}
	if *figure != 0 && (*figure < 4 || *figure > 7) {
		fatal(fmt.Errorf("-figure %d out of range: the paper's figures are 4-7", *figure))
	}
	if btoi(*latency)+btoi(*overload)+btoi(*mempress)+btoi(*rackscale)+btoi(*failover) > 1 {
		fatal(fmt.Errorf("-latency, -overload, -mempressure, -rackscale, and -failover are mutually exclusive sweeps"))
	}
	// The collector selector is validated whenever set (reject, never
	// clamp) and only means anything to the latency sweep: every other
	// sweep and baseline pins the legacy stop-the-world collector, so a
	// stray -gc must fail loudly rather than silently measure the wrong
	// collector.
	gcModes, gcErr := bench.GCModes(*gcMode)
	if gcErr != nil {
		fatal(gcErr)
	}

	// The overload/mempressure knobs are validated whenever set (reject,
	// never clamp) and only mean anything to a custom sweep: RunOverload
	// panics on a gap below 2 ns, so the CLI must catch that first with a
	// usable message, and an unknown admission name or an unusable budget
	// must not half-run a sweep before failing inside a worker.
	sweep := bench.DefaultOverloadSweep()
	sweep.FaultSeed = *faultSeed
	mpSweep := bench.DefaultMempressureSweep()
	scSweep := bench.DefaultScaleSweep()
	foSweep := bench.DefaultFailoverSweep()
	var loadsSet, budgetsSet, admSet, faultSeedSet, machinesSet, scaleSet bool
	var crashSet, replicasSet, gcSet bool
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "gc":
			gcSet = true
		case "loads":
			loadsSet = true
		case "budgets":
			budgetsSet = true
		case "admission":
			admSet = true
		case "fault-seed":
			faultSeedSet = true
		case "machines":
			machinesSet = true
		case "scale":
			scaleSet = true
		case "crash":
			crashSet = true
		case "replicas":
			replicasSet = true
		}
	})
	if loadsSet && !*overload {
		fatal(fmt.Errorf("-loads only applies to the -overload sweep"))
	}
	if budgetsSet && !*mempress {
		fatal(fmt.Errorf("-budgets only applies to the -mempressure sweep"))
	}
	if (admSet || faultSeedSet) && !*overload && !*mempress {
		fatal(fmt.Errorf("-admission/-fault-seed only apply to the -overload and -mempressure sweeps"))
	}
	if machinesSet && !*rackscale {
		fatal(fmt.Errorf("-machines only applies to the -rackscale sweep"))
	}
	if (crashSet || replicasSet) && !*failover {
		fatal(fmt.Errorf("-crash/-replicas only apply to the -failover sweep"))
	}
	if gcSet && !*latency {
		fatal(fmt.Errorf("-gc only applies to the -latency sweep; every other sweep pins the stop-the-world collector"))
	}
	if *crashes != "" {
		foSweep.Crashes = nil
		for _, s := range strings.Split(*crashes, ",") {
			kind, err := workload.ParseCrashKind(strings.TrimSpace(s))
			if err != nil {
				fatal(err)
			}
			foSweep.Crashes = append(foSweep.Crashes, kind)
		}
	}
	if *replicas != "" {
		foSweep.Replicas = nil
		for _, s := range strings.Split(*replicas, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad -replicas value %q: %w", s, err))
			}
			if r < 1 {
				fatal(fmt.Errorf("-replicas value %d is not a positive replication level", r))
			}
			foSweep.Replicas = append(foSweep.Replicas, r)
		}
	}
	if *failover {
		// The point set must be non-empty before any worker runs: an
		// incompatible crash/replica selection (board kills with replication
		// 1, say) must fail here with the full selection in the message.
		if _, err := bench.FailoverPoints(foSweep); err != nil {
			fatal(err)
		}
	}
	if *machines != "" {
		scSweep.Machines = nil
		for _, s := range strings.Split(*machines, ",") {
			name := strings.TrimSpace(s)
			if _, err := numa.Preset(name); err != nil {
				fatal(err)
			}
			scSweep.Machines = append(scSweep.Machines, name)
		}
	}
	if scaleSet && *rackscale {
		scSweep.Scale = *scale
	}
	if faultSeedSet && *mempress {
		mpSweep.SqueezeSeed = *faultSeed
	}
	if *budgets != "" {
		mpSweep.Budgets = nil
		for _, s := range strings.Split(*budgets, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad -budgets value %q: %w", s, err))
			}
			if b < 0 {
				fatal(fmt.Errorf("-budgets value %d is negative (0 = unbounded)", b))
			}
			if b > 0 && b < bench.MempressureThreads {
				fatal(fmt.Errorf("-budgets value %d is below the %d-vproc pool (every vproc needs at least one chunk)", b, bench.MempressureThreads))
			}
			mpSweep.Budgets = append(mpSweep.Budgets, b)
		}
	}
	if *loads != "" {
		sweep.Loads = nil
		for _, s := range strings.Split(*loads, ",") {
			gap, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad -loads gap %q: %w", s, err))
			}
			if gap < 2 {
				fatal(fmt.Errorf("-loads gap %d is not a usable inter-arrival gap (need >= 2 ns)", gap))
			}
			sweep.Loads = append(sweep.Loads, bench.OverloadLoad{Name: fmt.Sprintf("%dns", gap), MeanGapNs: gap})
		}
	}
	if *admission != "" {
		sweep.Admissions = nil
		for _, s := range strings.Split(*admission, ",") {
			adm, err := workload.ParseAdmission(strings.TrimSpace(s))
			if err != nil {
				fatal(err)
			}
			sweep.Admissions = append(sweep.Admissions, adm)
		}
	}

	if *baseline != "" && *compare != "" {
		fatal(fmt.Errorf("-baseline and -compare are mutually exclusive"))
	}
	if *baseline != "" || *compare != "" || *latency || *overload || *mempress || *rackscale || *failover {
		// Baselines (and the latency/overload/mempressure/rackscale/failover
		// sweeps) are only comparable across PRs when they are always
		// recorded at the one fixed configuration, so reject any other
		// configuration flag rather than silently ignoring it. -j, -v and
		// the profile flags are allowed: they do not change virtual
		// results. The sweep knobs are allowed only for a custom
		// print-mode sweep, never for a baseline.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "baseline", "compare", "latency", "overload", "mempressure", "rackscale", "failover", "v", "j",
				"cpuprofile", "memprofile":
			case "gc":
				// -gc selects which fixed latency matrix is measured: the
				// v1 (stw) or v2 (both-collector) baseline. It is already
				// confined to -latency above.
			case "loads", "admission", "fault-seed", "budgets", "machines", "crash", "replicas":
				if *baseline != "" || *compare != "" {
					fatal(fmt.Errorf("-baseline/-compare use that sweep's fixed configuration; remove -%s", f.Name))
				}
			case "scale":
				// -scale configures the throughput suite and the custom
				// -rackscale print mode; baselines pin their own scale.
				if *baseline != "" || *compare != "" {
					fatal(fmt.Errorf("-baseline/-compare use that sweep's fixed configuration; remove -%s", f.Name))
				}
				if !*rackscale {
					fatal(fmt.Errorf("-latency/-overload/-mempressure use a fixed configuration; remove -scale"))
				}
			default:
				fatal(fmt.Errorf("-baseline/-compare/-latency/-overload/-mempressure/-rackscale use a fixed configuration; remove -%s", f.Name))
			}
		})
		var progress func(string)
		if *verbose {
			progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
		}
		var err error
		switch {
		case *failover && *baseline != "":
			err = writeFailoverBaseline(*baseline, *workers, progress)
		case *failover && *compare != "":
			err = compareFailoverBaseline(*compare, *workers, progress)
		case *failover:
			var pts []bench.FailoverPoint
			if pts, err = bench.MeasureFailover(foSweep, *workers, progress); err == nil {
				fmt.Println(bench.RenderFailover(pts))
			}
		case *rackscale && *baseline != "":
			err = writeScaleBaseline(*baseline, *workers, progress)
		case *rackscale && *compare != "":
			err = compareScaleBaseline(*compare, *workers, progress)
		case *rackscale:
			var pts []bench.ScalePoint
			if pts, err = bench.MeasureScale(scSweep, *workers, progress); err == nil {
				fmt.Println(bench.RenderScale(pts))
			}
		case *mempress && *baseline != "":
			err = writeMempressureBaseline(*baseline, *workers, progress)
		case *mempress && *compare != "":
			err = compareMempressureBaseline(*compare, *workers, progress)
		case *mempress:
			fmt.Println(bench.RenderMempressure(mpSweep, bench.MeasureMempressure(mpSweep, *workers, progress)))
		case *overload && *baseline != "":
			err = writeOverloadBaseline(*baseline, *workers, progress)
		case *overload && *compare != "":
			err = compareOverloadBaseline(*compare, *workers, progress)
		case *overload:
			fmt.Println(bench.RenderOverload(bench.MeasureOverload(sweep, *workers, progress)))
		case *latency && *baseline != "":
			err = writeLatencyBaseline(*baseline, gcModes, *workers, progress)
		case *latency && *compare != "":
			err = compareLatencyBaseline(*compare, gcModes, *workers, progress)
		case *latency:
			fmt.Println(bench.RenderLatency(bench.MeasureLatencyGC(gcModes, *workers, progress)))
		case *baseline != "":
			err = writeBaseline(*baseline, *workers)
		default:
			err = compareBaseline(*compare, *workers)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	opt := bench.Options{Scale: *scale, Workers: *workers}
	if *verbose {
		opt.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if benchNames != nil {
		opt.Benchmarks = benchNames
	}

	switch {
	case *server:
		for _, f := range bench.RunServerFigures(opt) {
			fmt.Println(f.Render())
		}
	case *all:
		for id := 4; id <= 7; id++ {
			f, err := bench.RunFigure(id, opt)
			if err != nil {
				fatal(err)
			}
			fmt.Println(f.Render())
		}
	case *figure != 0:
		f, err := bench.RunFigure(*figure, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(f.Render())
	default:
		topo, err := numa.Preset(*machine)
		if err != nil {
			fatal(err)
		}
		pol, err := mempage.ParsePolicy(*policy)
		if err != nil {
			fatal(err)
		}
		ts := bench.AMDThreads
		if topo.Name == "intel32" {
			ts = bench.IntelThreads
		}
		if *threads != "" {
			ts = nil
			for _, s := range strings.Split(*threads, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					fatal(fmt.Errorf("bad thread count %q: %w", s, err))
				}
				if n < 1 || n > topo.NumCores() {
					fatal(fmt.Errorf("thread count %d out of range [1,%d] for machine %s", n, topo.NumCores(), topo.Name))
				}
				ts = append(ts, n)
			}
		}
		f := bench.Sweep(topo, pol, ts, opt)
		fmt.Println(f.Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcbench:", err)
	os.Exit(1)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
