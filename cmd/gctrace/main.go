// Command gctrace runs one benchmark and reports the garbage collector's
// behaviour: per-phase event counts, copied volumes, pause profile, and the
// runtime statistics behind them. -sweep NAME instead runs one point of a
// gcbench serving sweep:
//
//   - latency: the open-loop traffic harness; prints the latency
//     percentiles with the per-request GC-pause attribution breakdown —
//     which collection phases overlapped the request lifetimes in each
//     latency band.
//   - overload: the overload harness at one offered load and admission
//     policy (optionally with a seeded fault plan); prints the goodput/SLO
//     and shed/retry accounting.
//   - mempressure: the same harness against a bounded heap (-budget chunks,
//     optionally with a seeded transient squeeze); adds the memory-pressure
//     accounting: memory sheds, emergency-ladder walks, failed allocations,
//     and budget overdrafts.
//   - failover: the replicated serving harness under one injected crash
//     fault; prints the partial-failure accounting: crashed vprocs, lost
//     tasks/continuations/timers, goodput before and after the crash,
//     breaker trips, and the reroute/retry/hedge counters.
//
// Usage:
//
//	gctrace -bench barnes-hut -p 24 -scale 0.5
//	gctrace -bench synthetic -events          # print every GC event
//	gctrace -bench smvm -machine rack256 -p 256 -scale 0.1
//	gctrace -sweep latency                          # tail latency under GC, attribution table
//	gctrace -sweep latency -gap 100000 -policy single-node
//	gctrace -sweep latency -gc concurrent           # mostly-concurrent collector: window/assist/barrier attribution
//	gctrace -sweep overload -p 16 -gap 80000 -admission deadline
//	gctrace -sweep overload -p 16 -gap 40000 -admission queue -fault-seed 0xfa115afe
//	gctrace -sweep mempressure -p 16 -gap 40000 -admission memory -budget 24
//	gctrace -sweep mempressure -p 16 -gap 40000 -admission queue -fault-seed 0x5c0ee2e1
//	gctrace -sweep failover -p 16 -replicas 2 -crash vproc
//	gctrace -sweep failover -machine rack256 -p 32 -replicas 4 -crash board
//	gctrace -sweep failover -p 16 -replicas 2 -crash vproc -hedge 30000
//	gctrace -bench barnes-hut -p 48 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hostprof"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "synthetic", "benchmark to run")
		machine   = flag.String("machine", "amd48", "machine preset (amd48, intel32, rack256, rack1024, rack4096)")
		policy    = flag.String("policy", "local", "page placement policy")
		vprocs    = flag.Int("p", 8, "number of vprocs")
		scale     = flag.Float64("scale", 1.0, "workload scale")
		events    = flag.Bool("events", false, "print every GC event")
		sweepName = flag.String("sweep", "", "run one point of a serving sweep under its GC-pressure heap shape instead of -bench: "+strings.Join(harnessNames, ", "))
		replicasN = flag.Int("replicas", 2, "with -sweep failover: replication level of the serving pool")
		crashFlag = flag.String("crash", "vproc", "with -sweep failover: crash kind (none, vproc, board) injected at the sweep's fixed instant")
		hedge     = flag.Int64("hedge", 0, "with -sweep failover: hedge delay in virtual ns (0 = no hedged requests)")
		gap       = flag.Int64("gap", 400_000, "with -sweep latency/overload/mempressure: mean per-client inter-arrival gap in virtual ns (offered load)")
		admission = flag.String("admission", "deadline", "with -sweep overload/mempressure: admission policy (none, queue, deadline, memory)")
		faultSeed = flag.Uint64("fault-seed", 0, "with -sweep overload: seed a fault plan of stalls and bursts; with -sweep mempressure: seed a transient budget squeeze (0 = no faults)")
		budget    = flag.Int("budget", 0, "with -sweep mempressure: global heap budget in chunks (0 = unbounded)")
		gcMode    = flag.String("gc", "stw", "global collector (stw, concurrent)")
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

	// Reject, never clamp: an unknown collector name must not silently run
	// the default and report numbers for the wrong collector.
	var concurrentGC bool
	switch *gcMode {
	case "stw":
	case "concurrent":
		concurrentGC = true
	default:
		fatal(fmt.Errorf("unknown -gc mode %q (stw, concurrent)", *gcMode))
	}

	topo, err := numa.Preset(*machine)
	if err != nil {
		fatal(err)
	}
	pol, err := mempage.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	// Validate flags up front with actionable errors: a bad scale would
	// otherwise be silently clamped into a scale-1 run that looks like a
	// real result, a bad -p would panic deep inside Config.normalize, and a
	// bad admission name must fail here, not half-run first.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fatal(fmt.Errorf("-scale %v is not a positive workload scale", *scale))
	}
	if *vprocs < 1 || *vprocs > topo.NumCores() {
		fatal(fmt.Errorf("-p %d out of range [1,%d] for machine %s", *vprocs, topo.NumCores(), topo.Name))
	}
	if *gap < 2 {
		fatal(fmt.Errorf("-gap %d is not a usable inter-arrival gap (need >= 2 ns)", *gap))
	}
	harness := *sweepName
	if harness != "" && !slices.Contains(harnessNames, harness) {
		fatal(fmt.Errorf("unknown -sweep %q (%s)", harness, strings.Join(harnessNames, ", ")))
	}
	failover, mempress := harness == "failover", harness == "mempressure"
	if *budget < 0 {
		fatal(fmt.Errorf("-budget %d is negative (0 = unbounded)", *budget))
	}
	if *budget > 0 && *budget < *vprocs {
		fatal(fmt.Errorf("-budget %d is below -p %d (every vproc needs at least one chunk)", *budget, *vprocs))
	}
	adm, err := workload.ParseAdmission(*admission)
	if err != nil {
		fatal(err)
	}
	crash, err := workload.ParseCrashKind(*crashFlag)
	if err != nil {
		fatal(err)
	}
	if failover {
		// The harness panics on impossible crash targets; catch those here
		// with a usable message before any simulation time is spent.
		if *replicasN < 1 {
			fatal(fmt.Errorf("-replicas %d is not a positive replication level", *replicasN))
		}
		if *vprocs < 2 {
			fatal(fmt.Errorf("-sweep failover needs at least 2 vprocs (vproc 0 coordinates and is never a crash target)"))
		}
		if *hedge < 0 {
			fatal(fmt.Errorf("-hedge %d is not a usable hedge delay (0 disables hedging)", *hedge))
		}
		if crash == workload.CrashBoard && topo.Boards() < 2 {
			fatal(fmt.Errorf("-crash board needs a multi-board machine (%s has %d board(s)); try -machine rack256", topo.Name, topo.Boards()))
		}
		if crash == workload.CrashBoard && *replicasN < 2 {
			fatal(fmt.Errorf("-crash board with -replicas 1 leaves no surviving replica; use -replicas >= 2"))
		}
	}
	// Reject flag combinations that would otherwise be silently ignored:
	// the traffic harnesses have fixed workload shapes (-bench/-scale do
	// nothing under them), and each harness knob means something only to
	// the harnesses harnessKnobs lists it for.
	flag.Visit(func(f *flag.Flag) {
		if harness != "" && (f.Name == "bench" || f.Name == "scale") {
			fatal(fmt.Errorf("-sweep %s runs a fixed traffic workload; remove -%s", harness, f.Name))
		}
		var owners []string
		for _, h := range harnessNames {
			if slices.Contains(harnessKnobs[h], f.Name) {
				owners = append(owners, h)
			}
		}
		if owners != nil && !slices.Contains(owners, harness) {
			fatal(fmt.Errorf("-%s only applies to -sweep %s", f.Name, strings.Join(owners, "/")))
		}
	})
	spec, err := workload.ByName(*benchName)
	if err != nil {
		fatal(err)
	}

	var cfg core.Config
	if harness != "" {
		// Mirror the gcbench serving sweeps' GC-pressure configuration so the numbers printed here correspond
		// to the baseline points.
		cfg = bench.LatencyConfig(topo, pol, *vprocs)
		cfg.GlobalBudgetChunks = *budget
	} else {
		cfg = core.DefaultConfig(topo, *vprocs)
		cfg.Policy = pol
	}
	cfg.ConcurrentGlobal = concurrentGC
	rt := core.MustNewRuntime(cfg)

	var counts [core.NumEventKinds]int
	var words [core.NumEventKinds]int64
	var ns [core.NumEventKinds]int64
	rt.SetTracer(func(ev core.GCEvent) {
		counts[ev.Kind]++
		words[ev.Kind] += ev.Words
		ns[ev.Kind] += ev.Ns
		if *events {
			fmt.Printf("[%10d ns] vproc %-2d %-12s %8d words %8d ns\n",
				ev.At, ev.VProc, ev.Kind, ev.Words, ev.Ns)
		}
	})

	var res workload.Result
	var lat workload.LatencyResult
	var ov workload.OverloadResult
	var fo workload.FailoverResult
	switch harness {
	case "failover":
		opt := bench.FailoverOptionsFor(*replicasN, crash, bench.FailoverCrashNs, *hedge)
		fo = workload.RunFailover(rt, opt)
		res = fo.Result
		fmt.Printf("failover harness on %s, policy %s, %d vprocs, %d clients x %d requests, %d replicas x %d servers\n",
			topo.Name, pol, *vprocs, opt.Clients, opt.Requests, opt.Replicas, opt.ServersPerReplica)
		fmt.Printf("crash %s at %d ns (virtual), deadline %d ns, attempt timeout %d ns, hedge delay %d ns\n",
			crash, opt.CrashNs, opt.DeadlineNs, opt.AttemptNs, opt.HedgeDelayNs)
	case "latency":
		opt := bench.LatencyOptionsFor(*gap)
		lat = workload.RunLatency(rt, opt)
		res = lat.Result
		fmt.Printf("open-loop latency harness on %s, policy %s, %d vprocs, %d clients x %d requests, mean gap %d ns\n",
			topo.Name, pol, *vprocs, opt.Clients, opt.Requests, *gap)
	case "overload":
		opt := bench.OverloadOptionsFor(*gap)
		opt.Admission = adm
		if *faultSeed != 0 {
			opt.Faults = bench.OverloadFaultPlan(*faultSeed, *vprocs)
		}
		ov = workload.RunOverload(rt, opt)
		res = ov.Result
		fmt.Printf("overload harness on %s, policy %s, %d vprocs, %d clients x %d requests, mean gap %d ns, admission %s, SLO %d ns, fault seed %#x\n",
			topo.Name, pol, *vprocs, opt.Clients, opt.Requests, *gap, adm, opt.SLONs, *faultSeed)
	case "mempressure":
		opt := bench.OverloadOptionsFor(*gap)
		opt.Admission = adm
		if *faultSeed != 0 {
			opt.Faults = bench.MempressureFaultPlan(*faultSeed, *vprocs)
		}
		ov = workload.RunOverload(rt, opt)
		res = ov.Result
		fmt.Printf("memory-pressure harness on %s, policy %s, %d vprocs, %d clients x %d requests, mean gap %d ns, admission %s, SLO %d ns\n",
			topo.Name, pol, *vprocs, opt.Clients, opt.Requests, *gap, adm, opt.SLONs)
		fmt.Printf("heap budget %d chunks (0 = unbounded), watermarks %d/%d%%, squeeze seed %#x\n",
			*budget, opt.MemLowPct, opt.MemHighPct, *faultSeed)
	default:
		res = spec.Run(rt, *scale)
		fmt.Printf("benchmark %s on %s, policy %s, %d vprocs, scale %.2f\n",
			spec.Name, topo.Name, pol, *vprocs, *scale)
	}
	s := res.Stats

	fmt.Printf("elapsed (virtual): %.3f ms   checksum: %#x\n\n", float64(res.ElapsedNs)/1e6, res.Check)

	fmt.Println("collection phases:")
	for _, k := range []core.EventKind{core.EvMinor, core.EvMajor, core.EvPromote, core.EvGlobalEnd, core.EvSnapshot, core.EvTermination, core.EvEmergency} {
		label := k.String()
		if k == core.EvGlobalEnd {
			label = "global"
			if concurrentGC {
				// The concurrent cycle's span is mutator-interleaved
				// mark time, not a pause; the two window rows below
				// carry the actual stop-the-world durations.
				label = "global-cycle"
			}
		}
		if (k == core.EvSnapshot || k == core.EvTermination) && !concurrentGC {
			// The STW collector never emits window events; keep its
			// phase table byte-identical to the classic views.
			continue
		}
		if k == core.EvEmergency && !mempress {
			// Emergency ladder walks only exist under a bounded heap;
			// keep the classic views' phase table unchanged.
			continue
		}
		c := counts[k]
		if c == 0 {
			fmt.Printf("  %-10s %6d\n", label, 0)
			continue
		}
		fmt.Printf("  %-10s %6d   %10d words   avg %8.1f us\n",
			label, c, words[k], float64(ns[k])/float64(c)/1000)
	}

	if harness == "latency" {
		us := func(v int64) float64 { return float64(v) / 1e3 }
		fmt.Printf("\nrequest latency (virtual, from scheduled arrival):\n")
		fmt.Printf("  p50 %.1f us   p90 %.1f us   p99 %.1f us   p99.9 %.1f us   (%d requests, %d timers fired)\n",
			us(lat.P50), us(lat.P90), us(lat.P99), us(lat.P999), lat.Requests, s.TimersFired)
		fmt.Println("\npause attribution (mean per request in band; local pools minor/major/promote over all vprocs, normalized by vproc count):")
		fmt.Printf("  %-12s %8s %12s %14s %12s %12s\n", "band", "requests", "mean", "global-GC", "local-GC", "global-share")
		band := func(name string, b workload.AttributionBand) {
			share := 0.0
			if b.MeanNs > 0 {
				share = float64(b.Global.MeanNs) / float64(b.MeanNs)
			}
			fmt.Printf("  %-12s %8d %10.1fus %12.1fus %10.1fus %11.0f%%\n",
				name, b.Count, us(b.MeanNs), us(b.Global.MeanNs), us(b.Local.MeanNs), share*100)
		}
		band("all", lat.All)
		band(">=p99.9", lat.Tail)
		fmt.Printf("  (%d global collections overlapped tail-request lifetimes; largest single overlap %.1f us)\n",
			lat.Tail.GlobalGCs, us(lat.Tail.Global.MaxNs))
	}

	if harness == "overload" || mempress {
		us := func(v int64) float64 { return float64(v) / 1e3 }
		offered := float64(ov.Offered) / float64(ov.WindowNs) * 1e3
		goodput := float64(ov.GoodSLO) / float64(res.ElapsedNs) * 1e3
		fmt.Printf("\noverload accounting (every offered request resolves exactly once):\n")
		fmt.Printf("  offered   %6d requests over a %.1f us arrival window (%.2f/us)\n",
			ov.Offered, us(ov.WindowNs), offered)
		fmt.Printf("  completed %6d (%d within the SLO; goodput %.2f/us, SLO attainment %.0f%%)\n",
			ov.Completed, ov.GoodSLO, goodput, float64(ov.GoodSLO)/float64(ov.Offered)*100)
		fmt.Printf("  expired   %6d (nacked server-side: deadline unmeetable)\n", ov.Expired)
		fmt.Printf("  shed      %6d at admission (retry budget exhausted), %d to fault closes, %d to memory pressure\n",
			ov.ShedAdmission, ov.ShedFault, ov.ShedMemory)
		fmt.Printf("  retries   %6d re-attempts after a full lane (%d lane sheds total)\n",
			ov.Retries, s.ChanSheds)
		fmt.Printf("  latency   p50 %.1f us   p99 %.1f us (completed requests, from scheduled arrival)\n",
			us(ov.P50), us(ov.P99))
		if harness == "overload" && *faultSeed != 0 {
			fmt.Printf("  faults    %d injected: %.1f us stalled, %d words burst-allocated (seed %#x)\n",
				s.FaultsInjected, us(s.FaultStallNs), s.FaultBurstWords, *faultSeed)
		}
	}

	if mempress {
		mp := rt.MemPressure()
		fmt.Printf("\nmemory pressure (deterministic occupancy counters):\n")
		fmt.Printf("  occupancy  %6d of %d active chunks at exit (0 budget = unbounded)\n",
			mp.ActiveChunks, mp.BudgetChunks)
		fmt.Printf("  survived   %6d words active after the last global collection\n", mp.SurvivedWords)
		fmt.Printf("  emergency  %6d ladder walks (minor -> major -> global, then retry)\n", mp.EmergencyGCs)
		fmt.Printf("  allocfail  %6d mutator allocations failed after the ladder\n", mp.AllocFailed)
		fmt.Printf("  overdraft  %6d chunk activations past the budget (collections mid-copy)\n", mp.Overdrafts)
		if *faultSeed != 0 {
			fmt.Printf("  squeezes   %d fault events injected (seed %#x)\n", s.FaultsInjected, *faultSeed)
		}
	}

	if failover {
		us := func(v int64) float64 { return float64(v) / 1e3 }
		fmt.Printf("\nfailover accounting (every offered request resolves exactly once):\n")
		fmt.Printf("  offered   %6d requests over a %.1f us arrival window\n", fo.Offered, us(fo.WindowNs))
		fmt.Printf("  completed %6d (%d within the SLO deadline)\n", fo.Completed, fo.GoodSLO)
		fmt.Printf("  expired   %6d deadline budgets exhausted client-side, %d shed to memory pressure\n",
			fo.FailedDeadline, fo.ShedMemory)
		fmt.Printf("  lost      %6d requests whose client chain died with a crashed vproc (%d pre-crash, %d post)\n",
			fo.LostClient, fo.LostPre, fo.LostPost)
		fmt.Printf("  routing   %6d retries, %d rerouted off a crashed lane, %d hedged (%d hedge wins)\n",
			fo.Retries, fo.Rerouted, fo.Hedged, fo.HedgeWins)
		fmt.Printf("  breakers  %6d open transitions, %d fast-fails while all replicas were open, %d late replies dropped\n",
			fo.BreakerTrips, fo.FastFails, fo.LateReplies)
		fmt.Printf("  latency   p50 %.1f us   p99 %.1f us (completed requests, from scheduled arrival)\n",
			us(fo.P50), us(fo.P99))
		num, den := fo.ServingGoodputPost()
		preNum, preDen := fo.GoodPre, fo.OfferedPre
		pct := func(n, d int) float64 {
			if d == 0 {
				return 0
			}
			return float64(n) / float64(d) * 100
		}
		fmt.Printf("\ncrash impact (%d vproc(s) crashed):\n", fo.Crashes)
		if crash != workload.CrashNone {
			fmt.Printf("  goodput   %.0f%% of offered load served pre-crash (%d/%d), %.0f%% of surviving-client load post (%d/%d)\n",
				pct(preNum, preDen), preNum, preDen, pct(num, den), num, den)
		}
		fmt.Printf("  lost work %6d tasks, %d parked continuations, %d pending timers retired with crashed vprocs\n",
			s.LostTasks, s.LostConts, s.LostTimers)
	}

	fmt.Println("\nruntime totals:")
	fmt.Printf("  tasks run          %10d\n", s.TasksRun)
	fmt.Printf("  timers fired       %10d\n", s.TimersFired)
	fmt.Printf("  steals             %10d (failed probes %d)\n", s.Steals, s.FailedSteals)
	fmt.Printf("  allocated          %10d words\n", s.AllocWords)
	fmt.Printf("  minor copied       %10d words\n", s.MinorCopied)
	fmt.Printf("  major copied       %10d words\n", s.MajorCopied)
	fmt.Printf("  promoted           %10d words in %d promotions\n", s.PromotedWords, s.Promotions)
	fmt.Printf("  global collections %10d (%d words copied)\n", rt.Stats.GlobalGCs, rt.Stats.GlobalCopied)
	fmt.Printf("  chunks created     %10d, reused %d, cross-node scans %d\n",
		rt.Chunks.Created, rt.Chunks.Reused, rt.Stats.CrossNodeScanned)
	fmt.Printf("  local GC time      %10.3f ms, global GC time %.3f ms\n",
		float64(s.GCNs)/1e6, float64(rt.Stats.GlobalNs)/1e6)
	if concurrentGC {
		fmt.Printf("  mark assists       %10d words scanned in %.3f ms of mutator assist time\n",
			s.MarkAssistWords, float64(s.MarkAssistNs)/1e6)
		fmt.Printf("  write barrier      %10d shades that evacuated (%.3f ms charged)\n",
			s.BarrierHits, float64(s.BarrierNs)/1e6)
		fmt.Printf("  stw windows        %10.3f ms snapshot + %.3f ms termination across %d cycles\n",
			float64(rt.Stats.SnapshotNs)/1e6, float64(rt.Stats.TermNs)/1e6, rt.Stats.GlobalGCs)
	}

	traffic := rt.Machine.Stats()
	fmt.Println("\nmodelled traffic:")
	fmt.Printf("  local        %10.2f MB\n", float64(traffic.BytesByPath[numa.PathLocal])/1e6)
	fmt.Printf("  same-package %10.2f MB\n", float64(traffic.BytesByPath[numa.PathSamePackage])/1e6)
	fmt.Printf("  remote       %10.2f MB\n", float64(traffic.BytesByPath[numa.PathRemote])/1e6)
	if topo.Boards() > 1 {
		fmt.Printf("  far (board)  %10.2f MB\n", float64(traffic.BytesByPath[numa.PathFar])/1e6)
	}
	fmt.Printf("  cache        %10.2f MB\n", float64(traffic.CacheBytes)/1e6)

	es := rt.Eng.Stats()
	fmt.Println("\nengine work (host, deterministic):")
	fmt.Printf("  inline turns %10d\n", es.InlineTurns)
	fmt.Printf("  handoffs     %10d\n", es.Handoffs)
	fmt.Printf("  parks        %10d, wakes %d\n", es.Parks, es.Wakes)
}

// harnessNames are the serving harnesses -sweep selects, and harnessKnobs
// the flags each one accepts beyond the machine, policy, vproc and
// collector settings every run takes.
var (
	harnessNames = []string{"latency", "overload", "mempressure", "failover"}
	harnessKnobs = map[string][]string{
		"latency":     {"gap"},
		"overload":    {"gap", "admission", "fault-seed"},
		"mempressure": {"gap", "admission", "fault-seed", "budget"},
		"failover":    {"replicas", "crash", "hedge"},
	}
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gctrace:", err)
	os.Exit(1)
}
