// Command perfbench is the repository's host-performance benchmark. It
// measures how much host wall time, CPU time, set-up time and Go heap the
// simulator needs to produce a named workload's virtual results, and it
// checks every result before it reports a number. The traced mode splits
// host CPU by layer and reports the simulation's deterministic work
// counters. README.md describes the workloads and metrics.
//
//	go run . -workload figures -seconds 10 -repo ..
//	go run . -workload serving -seconds 10 -trace 1 -repo ..
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seedArg := fs.String("seed", "", "input seed, a non-negative integer (default: core.DefaultConfig's seed)")
	seconds := fs.Int("seconds", 10, "seconds of timed passes")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs traced passes too and reports the per-layer metrics")
	repo := fs.String("repo", ".", "repository root, which holds the committed *_v*.json baselines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if fs.NArg() > 0 {
		return usage(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return usage(err)
	}
	seed, err := workloadSeed(*seedArg)
	if err != nil {
		return usage(err)
	}
	if *seconds < 1 || *seconds > 600 {
		return usage(fmt.Errorf("-seconds %d outside 1..600", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		return usage(fmt.Errorf("-trace %d is neither 0 nor 1", *trace))
	}
	// One simulation at a time on at most every host CPU; the points run
	// the serial engine (SpanWorkers 1).
	runtime.GOMAXPROCS(min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))

	r, err := newRunner(w, *repo, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	m, err := r.measure(seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "workload %s: %d points per pass, seed %#x (check pass at the default seed %#x), %s, GOMAXPROCS %d\n",
		w.name, len(r.points), seed, defaultSeed, runtime.Version(), runtime.GOMAXPROCS(0))
	e2e := endToEnd(m)
	fmt.Fprintf(stdout, "end-to-end, %d untraced passes:\n", len(m.plain))
	printMetrics(stdout, e2e)
	fmt.Fprintf(stdout, "  wall_s per pass: %s\n", fmtSeconds(per(m.plain, passWall)))
	if pct, v, ok := tail(per(m.plain, passWall)); ok {
		fmt.Fprintf(stdout, "  wall_s p%.0f %.4f s\n", pct, v)
	} else {
		fmt.Fprintf(stdout, "  wall_s tail: no percentile has ten passes beyond it at n=%d\n", len(m.plain))
	}
	fmt.Fprintf(stdout, "  digest of virtual results and work counters: %#x\n", digest(m.plain[0]))
	fmt.Fprintf(stdout, "  fail_frac %g (%d of %d points failed)\n", ratio(int64(r.failed), int64(r.attempted)), r.failed, r.attempted)
	out := e2e
	if *trace == 1 {
		out = perLayer(m)
		fmt.Fprintf(stdout, "per layer, %d traced passes:\n", len(m.tracedPasses))
		printMetrics(stdout, out)
		printEvents(stdout, sum(m.tracedPasses[0].recs))
	}

	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, mt := range out {
		res.Metrics[mt.name] = jsonMetric{mt.value, mt.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// workloadSeed maps the -seed argument to the simulation seed: the
// default seed when it is empty, otherwise a splitmix64 scramble of it, so
// that small seeds still give well-mixed generator states.
func workloadSeed(arg string) (uint64, error) {
	if arg == "" {
		return defaultSeed, nil
	}
	n, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("-seed %q is not a non-negative integer", arg)
	}
	z := n + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31, nil
}

type metric struct {
	name, unit string
	value      float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func passWall(p pass) float64 { return p.wall.Seconds() }

// endToEnd gives the medians over the untraced passes, and the largest
// live heap the check pass saw.
func endToEnd(m measurement) []metric {
	med := func(f func(pass) float64) float64 { return median(per(m.plain, f)) }
	return []metric{
		{"wall_s", "s", med(passWall)},
		{"cpu_s", "s", med(func(p pass) float64 { return p.cpu.Seconds() })},
		{"setup_s", "s", med(func(p pass) float64 { return p.setup.Seconds() })},
		{"alloc_mb", "MB", med(func(p pass) float64 { return float64(p.alloc) / 1e6 })},
		{"live_mb", "MB", float64(m.verify.live) / 1e6},
	}
}

// perLayer gives the traced passes' profile split and work counters per
// pass, and the untraced passes' host runtime figures.
func perLayer(m measurement) []metric {
	var out []metric
	n := float64(len(m.tracedPasses))
	for _, l := range layers {
		out = append(out, metric{l + ".cpu_s", "s", float64(m.layers[l]) / 1e9 / n})
	}
	med := func(f func(pass) float64) float64 { return median(per(m.plain, f)) }
	out = append(out,
		metric{"host.gc_cpu_s", "s", med(func(p pass) float64 { return p.gcCPU })},
		metric{"host.mallocs", "count", med(func(p pass) float64 { return float64(p.mallocs) })},
		metric{"host.gc_cycles", "count", med(func(p pass) float64 { return float64(p.gcCycles) })},
	)
	c := sum(m.tracedPasses[0].recs)
	f := func(i int) float64 { return float64(c[i]) }
	out = append(out,
		metric{"sched.tasks", "count", f(cTasks)},
		metric{"sched.steals", "count", f(cSteals)},
		metric{"sched.failed_steals", "count", f(cFailedSteals)},
		metric{"sched.steal_hit_ratio", "ratio", ratio(c[cSteals], c[cSteals]+c[cFailedSteals])},
		metric{"numa.accesses", "count", f(cAccesses)},
		metric{"numa.remote_frac", "ratio", ratio(c[cRemoteBytes], c[cPathBytes])},
		metric{"numa.far_bytes", "bytes", f(cFarBytes)},
		metric{"heap.alloc_words", "words", f(cAllocWords)},
		metric{"heap.chunks", "count", f(cChunks)},
		metric{"gc.minor", "count", f(cMinor)},
		metric{"gc.major", "count", f(cMajor)},
		metric{"gc.promotions", "count", f(cPromotions)},
		metric{"gc.global", "count", f(cGlobal)},
		metric{"gc.copied_words", "words", f(cCopiedWords)},
		metric{"gc.events", "count", float64(c.events())},
		metric{"gc.local_vms", "virtual_ms", f(cLocalNs) / 1e6},
		metric{"gc.global_vms", "virtual_ms", f(cGlobalNs) / 1e6},
		metric{"gc.stw_vus", "virtual_us", f(cSTWNs) / 1e3},
		metric{"gc.barrier_hits", "count", f(cBarrierHits)},
		metric{"gc.assist_words", "words", f(cAssistWords)},
		metric{"chan.sends", "count", f(cChanSends)},
		metric{"chan.handoff_ratio", "ratio", ratio(c[cChanHandoffs], c[cChanSends])},
		metric{"chan.sheds", "count", f(cChanSheds)},
		metric{"timers.fired", "count", f(cTimersFired)},
		metric{"fault.injected", "count", f(cFaultsInjected)},
		metric{"fault.emergency_gcs", "count", f(cEmergencyGCs)},
		metric{"fault.alloc_failed", "count", f(cAllocFailed)},
		metric{"fault.lost_work", "count", f(cLostWork)},
	)
	events := c.simEvents()
	wall := med(passWall)
	traced := median(per(m.tracedPasses, passWall))
	out = append(out,
		metric{"sim.events", "count", float64(events)},
		metric{"sim.ns_per_event", "ns", wall * 1e9 / float64(max(events, 1))},
		metric{"trace.overhead_s", "s", traced - wall},
	)
	return out
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-22s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// printEvents prints the tracer's GC events per kind.
func printEvents(w io.Writer, c counters) {
	var parts []string
	for k, n := range c[cEvents:] {
		parts = append(parts, fmt.Sprintf("%s %d", core.EventKind(k), n))
	}
	fmt.Fprintf(w, "  GC events per pass by kind: %s\n", strings.Join(parts, ", "))
}
