// Command gcbench regenerates the paper's evaluation figures: speedup
// sweeps of the five benchmarks over thread counts, machines, and page
// placement policies. -sweep NAME selects one of the fixed sweeps of the
// registry (sweeps.go) instead: it prints its table, records its baseline
// (-baseline), or gates it against a committed baseline (-compare). Sweep
// points are independent deterministic simulations, so they run on a
// worker pool (-j); results are identical for any worker count.
//
// Usage:
//
//	gcbench -figure 5                 # regenerate Figure 5 (AMD, local)
//	gcbench -figure 4 -scale 0.5      # Figure 4 at half workload scale
//	gcbench -machine amd48 -policy interleaved -threads 1,8,48 -bench dmm
//	gcbench -all                      # Figures 4-7
//	gcbench -all -j 8                 # ... with 8 sweep workers
//	gcbench -server                   # message-passing server sweep (both machines, all policies)
//	gcbench -sweep latency            # open-loop latency sweep (tail latency under GC)
//	gcbench -sweep latency -gc concurrent   # ... under the mostly-concurrent global collector
//	gcbench -sweep overload           # goodput/SLO vs offered load, faulted points
//	gcbench -sweep overload -loads 80000,40000 -admission deadline -fault-seed 7
//	gcbench -sweep mempressure        # bounded heaps, emergency GC, memory-aware admission
//	gcbench -sweep mempressure -budgets 0,20,16 -admission memory
//	gcbench -sweep rackscale          # paper machines + rack256, traffic split
//	gcbench -sweep rackscale -machines rack256,rack1024 -scale 0.1
//	gcbench -sweep failover           # replicated serving under crash faults
//	gcbench -sweep failover -crash board -replicas 2,4
//	gcbench -baseline BENCH_v3.json   # record the throughput baseline (-sweep figures)
//	gcbench -compare BENCH_v3.json    # fail on any virtual-time drift
//	gcbench -sweep latency -compare LATENCY_v1.json           # latency drift gate
//	gcbench -sweep latency -gc both -compare LATENCY_v2.json  # both-collector latency gate
//	gcbench -sweep overload -compare OVERLOAD_v1.json
//	gcbench -sweep mempressure -compare MEMPRESSURE_v1.json
//	gcbench -sweep rackscale -compare SCALE_v1.json
//	gcbench -sweep failover -compare FAILOVER_v1.json
//	gcbench -figure 7 -cpuprofile cpu.out        # host CPU profile of a sweep
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
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
		sweepName = flag.String("sweep", "", "fixed sweep to print, record (-baseline) or gate (-compare):"+sweepHelp())
		figure    = flag.Int("figure", 0, "paper figure to regenerate (4-7)")
		all       = flag.Bool("all", false, "regenerate all figures (4-7)")
		server    = flag.Bool("server", false, "sweep the message-passing server workload (both machines, all three policies)")
		scale     = flag.Float64("scale", 1.0, "workload scale (1.0 = default reduced sizes); with -sweep rackscale: that sweep's scale")
		machine   = flag.String("machine", "amd48", "machine preset for custom sweeps (amd48, intel32, rack256, rack1024, rack4096)")
		policy    = flag.String("policy", "local", "page placement policy (local, interleaved, single-node)")
		threads   = flag.String("threads", "", "comma-separated thread counts for custom sweeps")
		benches   = flag.String("bench", "", "comma-separated benchmark subset (default: the five paper benchmarks)")
		verbose   = flag.Bool("v", false, "print per-run progress")
		workers   = flag.Int("j", runtime.GOMAXPROCS(0), "sweep points to run concurrently (virtual results are identical for any value)")
		baseline  = flag.String("baseline", "", "measure the sweep (default: figures) and write its baseline JSON to this file")
		compare   = flag.String("compare", "", "re-measure the sweep (default: figures) and fail on any virtual drift vs this baseline JSON")
		cpuProf   = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a host heap profile at the end of the run to this file")
	)
	// Sweep knobs, read through knobs.set for the selected sweep only.
	flag.String("gc", "stw", "with -sweep latency: global collector(s) to sweep (stw, concurrent, both)")
	flag.String("loads", "", "with -sweep overload: comma-separated mean inter-arrival gaps in virtual ns (default: the 0.4x/1x/2x/4x saturation ladder)")
	flag.String("admission", "", "with -sweep overload/mempressure: comma-separated admission policies (none, queue, deadline, memory; default: that sweep's fixed set)")
	flag.Uint64("fault-seed", bench.OverloadFaultSeed, "with -sweep overload: seed of the faulted top-load points; with -sweep mempressure: seed of the squeeze points (0 disables them)")
	flag.String("budgets", "", "with -sweep mempressure: comma-separated global chunk budgets (0 = unbounded; default: the 0/32/24/16 ladder)")
	flag.String("machines", "", "with -sweep rackscale: comma-separated machine presets (default: amd48,intel32,rack256)")
	flag.String("crash", "", "with -sweep failover: comma-separated crash kinds (none, vproc, board; default: the fixed schedule)")
	flag.String("replicas", "", "with -sweep failover: comma-separated replication levels (default: the fixed 1-4 ladder)")
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
	// Flags that do not apply to the selected mode are rejected, never
	// ignored: a baseline is only comparable across changes when it is
	// always recorded at its one fixed configuration.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fatal(fmt.Errorf("-scale %v is not a positive workload scale", *scale))
	}
	if *workers < 1 {
		fatal(fmt.Errorf("-j %d is not a positive worker count", *workers))
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	sw, err := checkFlags(*sweepName, set)
	if err != nil {
		fatal(err)
	}
	var progress func(string)
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	if sw != nil {
		r := run{knobs: defaultKnobs(), workers: *workers, progress: progress}
		flag.Visit(func(f *flag.Flag) {
			if slices.Contains(sw.knobs, f.Name) {
				if err := r.set(f.Name, f.Value.String()); err != nil {
					fatal(err)
				}
			}
		})
		switch {
		case *baseline != "":
			err = sw.kind.write(sw, r, *baseline)
		case *compare != "":
			err = sw.kind.compare(sw, r, *compare)
		default:
			err = sw.kind.print(sw, r)
		}
		if err != nil {
			fatal(err)
		}
		return
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
	opt := bench.Options{Scale: *scale, Workers: *workers, Progress: progress, Benchmarks: benchNames}

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
		fmt.Println(bench.Sweep(topo, pol, ts, opt).Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcbench:", err)
	os.Exit(1)
}
