package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/numa"
)

// defaultSeed is core.DefaultConfig's seed, the one every committed
// baseline was recorded at.
var defaultSeed = core.DefaultConfig(numa.AMD48(), 1).Seed

// minPasses is the fewest timed passes a measurement makes, however long
// a pass takes.
const minPasses = 3

// runner measures one workload and tallies every point it checks.
type runner struct {
	points []point
	post   func([]any)
	// base holds the committed virtual records by point key, when the
	// workload has baselines; baseErrs says why a file could not be read.
	baselined bool
	base      map[string]any
	baseErrs  []string
	oracles   map[string]oracleValue
	log       io.Writer
	samples   []metrics.Sample

	attempted, failed int
}

type oracleValue struct {
	check uint64
	err   error
}

// Host counters read around every timed window, in this order.
var hostMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func newRunner(w workloadDef, repo string, log io.Writer) (*runner, error) {
	pts, err := w.points()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	r := &runner{
		points:    pts,
		post:      w.post,
		baselined: len(w.baselines) > 0,
		base:      map[string]any{},
		oracles:   map[string]oracleValue{},
		log:       log,
		samples:   make([]metrics.Sample, len(hostMetrics)),
	}
	for i, name := range hostMetrics {
		r.samples[i].Name = name
	}
	for _, b := range w.baselines {
		data, err := os.ReadFile(filepath.Join(repo, b.file))
		var recs map[string]any
		if err == nil {
			recs, err = b.load(data)
		}
		if err != nil {
			r.baseErrs = append(r.baseErrs, fmt.Sprintf("%s: %v", b.file, err))
			continue
		}
		for k, v := range recs {
			r.base[k] = v
		}
	}
	return r, nil
}

// prepare computes every oracle the points need at seed, so that no oracle
// runs inside a timed window.
func (r *runner) prepare(seed uint64) {
	for _, p := range r.points {
		if p.oracle == nil {
			continue
		}
		k := oracleID(p.oracleKey, seed)
		if _, ok := r.oracles[k]; ok {
			continue
		}
		var v oracleValue
		func() {
			defer func() {
				if e := recover(); e != nil {
					v.err = fmt.Errorf("oracle panicked: %v", e)
				}
			}()
			v.check, v.err = p.oracle(seed)
		}()
		r.oracles[k] = v
	}
}

func oracleID(key string, seed uint64) string { return fmt.Sprintf("%s seed=%#x", key, seed) }

// hostSample is one reading of the process's host counters.
type hostSample struct {
	wall                     time.Time
	cpu                      time.Duration // user + system, all threads
	alloc, mallocs, gcCycles uint64
	gcCPU                    float64
}

func (r *runner) host() hostSample {
	metrics.Read(r.samples)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    r.samples[0].Value.Uint64(),
		mallocs:  r.samples[1].Value.Uint64(),
		gcCycles: r.samples[2].Value.Uint64(),
		gcCPU:    r.samples[3].Value.Float64(),
		wall:     time.Now(),
	}
}

// pass is one pass over a workload's points. The host figures sum the
// timed windows only: each point's set-up and run, and the post-processing.
type pass struct {
	wall, setup, cpu         time.Duration
	alloc, mallocs, gcCycles uint64
	gcCPU                    float64
	live                     uint64 // largest live Go heap after a point; probed passes only
	recs                     []record
}

// record is what the checks keep of one point's run.
type record struct {
	virtual any
	work    counters
	failed  bool
}

func (ps *pass) add(before, after hostSample, setupDone time.Time) {
	ps.wall += after.wall.Sub(before.wall)
	ps.setup += setupDone.Sub(before.wall)
	ps.cpu += after.cpu - before.cpu
	ps.alloc += after.alloc - before.alloc
	ps.mallocs += after.mallocs - before.mallocs
	ps.gcCycles += after.gcCycles - before.gcCycles
	ps.gcCPU += after.gcCPU - before.gcCPU
}

type passOpts struct {
	seed uint64
	// baseline compares each point with its committed record; only the
	// default seed has them.
	baseline bool
	// probeLive forces a host GC after each point, outside the timed
	// window, while the point's runtime is still referenced.
	probeLive bool
	// traced installs a GC-event tracer counting events per kind.
	traced bool
}

func (r *runner) runPass(o passOpts) pass {
	ps := pass{recs: make([]record, len(r.points))}
	virtual := make([]any, len(r.points))
	for i, p := range r.points {
		var events [core.NumEventKinds]int64
		var tracer core.Tracer
		if o.traced {
			tracer = func(ev core.GCEvent) { events[ev.Kind]++ }
		}
		before := r.host()
		rt, out, setupDone, err := simulate(p, o.seed, tracer)
		after := r.host()
		if setupDone.IsZero() {
			setupDone = after.wall
		}
		ps.add(before, after, setupDone)

		rec := record{virtual: out.virtual}
		if rt != nil {
			rec.work = workOf(rt, events)
		}
		if o.probeLive {
			runtime.GC()
			live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			metrics.Read(live)
			ps.live = max(ps.live, live[0].Value.Uint64())
			runtime.KeepAlive(rt)
		}
		r.attempted++
		if reason := r.check(p, o, out, err); reason != "" {
			rec.failed = true
			r.fail(p.key, o.seed, reason)
		}
		ps.recs[i] = rec
		virtual[i] = out.virtual
	}
	if r.post != nil {
		before := r.host()
		r.post(virtual)
		after := r.host()
		ps.add(before, after, before.wall)
	}
	return ps
}

// simulate builds and runs one point and reports when set-up ended. A
// panic on this goroutine, such as a rejected configuration or a harness's
// own accounting check, is returned as an error. A panic inside a
// simulated vproc's goroutine cannot be recovered and ends the process.
func simulate(p point, seed uint64, tracer core.Tracer) (rt *core.Runtime, out outcome, setupDone time.Time, err error) {
	defer func() {
		if e := recover(); e != nil {
			err = fmt.Errorf("panic: %v", e)
		}
	}()
	rt, err = p.build(seed)
	setupDone = time.Now()
	if err != nil {
		return nil, out, setupDone, err
	}
	if tracer != nil {
		rt.SetTracer(tracer)
	}
	out = p.run(rt)
	return rt, out, setupDone, nil
}

// check returns why a point's run failed, or "" when it passed.
func (r *runner) check(p point, o passOpts, out outcome, err error) string {
	if err != nil {
		return err.Error()
	}
	if out.err != nil {
		return out.err.Error()
	}
	if p.oracle != nil {
		want, ok := r.oracles[oracleID(p.oracleKey, o.seed)]
		switch {
		case !ok:
			return "no reference computed"
		case want.err != nil:
			return "reference: " + want.err.Error()
		case out.check != want.check:
			return fmt.Sprintf("checksum %#x, reference %#x", out.check, want.check)
		}
	}
	if o.baseline && r.baselined {
		want, ok := r.base[p.key]
		if !ok {
			if len(r.baseErrs) > 0 {
				return "no committed record (" + strings.Join(r.baseErrs, "; ") + ")"
			}
			return "no committed record"
		}
		if out.virtual != want {
			return fmt.Sprintf("virtual results differ from the committed baseline:\n  committed %+v\n  got       %+v", want, out.virtual)
		}
	}
	return ""
}

func (r *runner) fail(key string, seed uint64, reason string) {
	r.failed++
	fmt.Fprintf(r.log, "perfbench: FAIL %s (seed %#x): %s\n", key, seed, reason)
}

// timed runs passes at seed until budget has passed, and at least n of
// them.
func (r *runner) timed(seed uint64, budget time.Duration, n int, traced bool) []pass {
	var ps []pass
	start := time.Now()
	for len(ps) < n || time.Since(start) < budget {
		ps = append(ps, r.runPass(passOpts{seed: seed, traced: traced}))
	}
	return ps
}

// repeats fails every point whose run in a later pass differs from its run
// in ref: virtual results and work counters must repeat exactly. events
// says whether both sides counted GC events.
func (r *runner) repeats(ref pass, later []pass, seed uint64, events bool) {
	for _, ps := range later {
		for i, rec := range ps.recs {
			want := ref.recs[i]
			if rec.failed || want.failed {
				continue
			}
			a, b := rec.work, want.work
			if !events {
				a.clearEvents()
				b.clearEvents()
			}
			if rec.virtual != want.virtual || a != b {
				rec.failed = true
				ps.recs[i] = rec
				r.fail(r.points[i].key, seed, "a repeated run gave different virtual results or work counters")
			}
		}
	}
}

// digest hashes a pass's virtual results and work counters, GC event
// counts excluded; a host-only change must leave it unchanged.
func digest(ps pass) uint64 {
	h := fnv.New64a()
	for _, rec := range ps.recs {
		w := rec.work
		w.clearEvents()
		fmt.Fprintf(h, "%+v %v\n", rec.virtual, w)
	}
	return h.Sum64()
}

// measurement is everything one invocation measured.
type measurement struct {
	verify       pass
	plain        []pass
	tracedPasses []pass
	layers       map[string]int64 // profile CPU ns per layer over the traced passes
}

// measure runs the default-seed check pass, then timed passes at seed for
// budget. With trace it spends half the budget on untraced passes and half
// on traced ones, which run under a CPU profile and an event tracer.
func (r *runner) measure(seed uint64, budget time.Duration, trace bool) (measurement, error) {
	var m measurement
	r.prepare(defaultSeed)
	r.prepare(seed)
	m.verify = r.runPass(passOpts{seed: defaultSeed, baseline: true, probeLive: true})
	if !trace {
		m.plain = r.timed(seed, budget, minPasses, false)
		r.repeats(m.plain[0], m.plain[1:], seed, false)
		return m, nil
	}
	m.plain = r.timed(seed, budget/2, 2, false)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return m, fmt.Errorf("start CPU profile: %w", err)
	}
	m.tracedPasses = r.timed(seed, budget/2, 2, true)
	pprof.StopCPUProfile()
	r.repeats(m.plain[0], m.plain[1:], seed, false)
	r.repeats(m.plain[0], m.tracedPasses[:1], seed, false)
	r.repeats(m.tracedPasses[0], m.tracedPasses[1:], seed, true)
	layers, err := layerCPU(prof.Bytes())
	if err != nil {
		return m, fmt.Errorf("read CPU profile: %w", err)
	}
	m.layers = layers
	return m, nil
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// above it, with its value; ok is false below eleven samples.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	return 100 * float64(i+1) / float64(n), s[i], true
}

// per maps every pass to one figure.
func per(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}
