package main

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/numa"
	"repro/internal/workload"
)

// sweep is one registry entry: a fixed sweep that -sweep NAME prints,
// records (-baseline) or gates (-compare).
type sweep struct {
	name string
	doc  string
	// version and scale are the baseline envelope's; version may depend
	// on the matrix knob.
	version func(*knobs) int
	scale   float64
	// knobs are the flags the sweep accepts to customize a print-mode run.
	// matrix, if set, is the one knob that selects which fixed matrix is
	// measured, so -baseline/-compare accept it too.
	knobs  []string
	matrix string
	kind   interface {
		print(s *sweep, r run) error
		write(s *sweep, r run, path string) error
		compare(s *sweep, r run, path string) error
	}
}

// run is one invocation's measurement settings.
type run struct {
	*knobs
	workers  int
	progress func(string)
}

func always(v int) func(*knobs) int { return func(*knobs) int { return v } }

// sweeps is the registry, in help order.
var sweeps = []*sweep{
	{
		name: "figures", doc: "the throughput suite (Figures 5-7 at p=1,24,48; BENCH_v3.json)",
		version: always(3), scale: bench.FigurePointScale,
		kind: kind[bench.FigurePoint]{
			measure: func(r run) ([]bench.FigurePoint, error) { return bench.MeasureFigurePoints(r.workers, r.progress), nil },
			render:  func(_ *knobs, pts []bench.FigurePoint) string { return bench.RenderFigurePoints(pts) },
		},
	},
	{
		name: "latency", doc: "open-loop tail latency under GC with pause attribution (LATENCY_v1.json; -gc both: LATENCY_v2.json)",
		version: func(k *knobs) int {
			if len(k.gc) == 1 && k.gc[0] == "" {
				return 1 // the stop-the-world matrix
			}
			return 2
		},
		knobs: []string{"gc"}, matrix: "gc",
		kind: kind[bench.LatencyPoint]{
			measure: func(r run) ([]bench.LatencyPoint, error) {
				return bench.MeasureLatencyGC(r.gc, r.workers, r.progress), nil
			},
			render: func(_ *knobs, pts []bench.LatencyPoint) string { return bench.RenderLatency(pts) },
		},
	},
	{
		name: "overload", doc: "goodput/SLO vs offered load per admission policy, with faulted points (OVERLOAD_v1.json)",
		version: always(1), knobs: []string{"loads", "admission", "fault-seed"},
		kind: kind[bench.OverloadPoint]{
			measure: func(r run) ([]bench.OverloadPoint, error) {
				return bench.MeasureOverload(r.overload, r.workers, r.progress), nil
			},
			render: func(_ *knobs, pts []bench.OverloadPoint) string { return bench.RenderOverload(pts) },
		},
	},
	{
		name: "mempressure", doc: "bounded-heap budget ladder per admission policy, with squeeze-fault points (MEMPRESSURE_v1.json)",
		version: always(1), knobs: []string{"budgets", "admission", "fault-seed"},
		kind: kind[bench.MempressurePoint]{
			measure: func(r run) ([]bench.MempressurePoint, error) {
				return bench.MeasureMempressure(r.mempressure, r.workers, r.progress), nil
			},
			render: func(k *knobs, pts []bench.MempressurePoint) string {
				return bench.RenderMempressure(k.mempressure, pts)
			},
		},
	},
	{
		name: "rackscale", doc: "full-core-count makespans and NUMA traffic split, far tier included (SCALE_v1.json)",
		version: always(1), scale: bench.DefaultScaleSweep().Scale, knobs: []string{"machines", "scale"},
		kind: kind[bench.ScalePoint]{
			measure: func(r run) ([]bench.ScalePoint, error) { return bench.MeasureScale(r.rackscale, r.workers, r.progress) },
			render:  func(_ *knobs, pts []bench.ScalePoint) string { return bench.RenderScale(pts) },
		},
	},
	{
		name: "failover", doc: "replicated serving under injected crash faults (FAILOVER_v1.json)",
		version: always(1), knobs: []string{"crash", "replicas"},
		kind: kind[bench.FailoverPoint]{
			measure: func(r run) ([]bench.FailoverPoint, error) {
				return bench.MeasureFailover(r.failover, r.workers, r.progress)
			},
			render: func(_ *knobs, pts []bench.FailoverPoint) string { return bench.RenderFailover(pts) },
		},
	},
}

// modeFlags are accepted in every mode: they choose what runs and how, and
// never change a virtual result.
var modeFlags = []string{"sweep", "baseline", "compare", "j", "v", "cpuprofile", "memprofile"}

// checkFlags validates a command line against the registry. name is the
// -sweep value ("" for none) and set holds the name of every flag given
// explicitly. It returns the selected sweep, or nil for the figure modes;
// -baseline and -compare without -sweep select the figures suite.
func checkFlags(name string, set map[string]bool) (*sweep, error) {
	fixed := set["baseline"] || set["compare"]
	if set["baseline"] && set["compare"] {
		return nil, errors.New("-baseline and -compare are mutually exclusive")
	}
	if name == "" && fixed {
		name = "figures"
	}
	var sw *sweep
	if name != "" {
		i := slices.IndexFunc(sweeps, func(s *sweep) bool { return s.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown -sweep %q (%s)", name, strings.Join(sweepNames(), ", "))
		}
		sw = sweeps[i]
	}
	flags := make([]string, 0, len(set))
	for f := range set {
		flags = append(flags, f)
	}
	sort.Strings(flags)
	for _, f := range flags {
		owners := knobOwners(f)
		switch {
		case slices.Contains(modeFlags, f):
		case sw == nil && (owners == nil || f == "scale"):
			// A figure-mode flag (-scale also sizes the figure modes).
		case sw != nil && slices.Contains(sw.knobs, f):
			if fixed && f != sw.matrix {
				return nil, fmt.Errorf("-baseline/-compare use the %s sweep's fixed configuration; remove -%s", sw.name, f)
			}
		case owners != nil:
			return nil, fmt.Errorf("-%s only applies to -sweep %s", f, strings.Join(owners, "/"))
		default:
			return nil, fmt.Errorf("-sweep %s runs a fixed configuration; remove -%s", sw.name, f)
		}
	}
	return sw, nil
}

// knobOwners names the sweeps that take flag f as a knob.
func knobOwners(f string) []string {
	var out []string
	for _, s := range sweeps {
		if slices.Contains(s.knobs, f) {
			out = append(out, s.name)
		}
	}
	return out
}

func sweepNames() []string {
	var out []string
	for _, s := range sweeps {
		out = append(out, s.name)
	}
	return out
}

// sweepHelp lists the registry for -sweep's usage line.
func sweepHelp() string {
	var b strings.Builder
	for _, s := range sweeps {
		fmt.Fprintf(&b, "\n  %-12s %s", s.name, s.doc)
	}
	return b.String()
}

// knobs are the sweep configurations the knob flags edit. Every field
// starts at its sweep's fixed (baseline) configuration.
type knobs struct {
	gc          []string
	overload    bench.OverloadSweep
	mempressure bench.MempressureSweep
	rackscale   bench.ScaleSweep
	failover    bench.FailoverSweep
}

func defaultKnobs() *knobs {
	return &knobs{
		gc:          []string{""},
		overload:    bench.DefaultOverloadSweep(),
		mempressure: bench.DefaultMempressureSweep(),
		rackscale:   bench.DefaultScaleSweep(),
		failover:    bench.DefaultFailoverSweep(),
	}
}

// set applies one knob flag's value. Values are rejected, never clamped,
// so a bad one fails here rather than half-running a sweep: RunOverload
// panics on a gap below 2 ns, and a Config with a nonzero budget below the
// pool size fails validation inside a worker.
func (k *knobs) set(name, value string) error {
	var err error
	switch name {
	case "gc":
		k.gc, err = bench.GCModes(value)
	case "loads":
		k.overload.Loads, err = parseList(value, func(s string) (bench.OverloadLoad, error) {
			gap, err := strconv.ParseInt(s, 10, 64)
			if err == nil && gap < 2 {
				err = fmt.Errorf("%d is not a usable inter-arrival gap (need >= 2 ns)", gap)
			}
			return bench.OverloadLoad{Name: fmt.Sprintf("%dns", gap), MeanGapNs: gap}, err
		})
	case "admission":
		k.overload.Admissions, err = parseList(value, workload.ParseAdmission)
		k.mempressure.Admissions = k.overload.Admissions
	case "fault-seed":
		k.overload.FaultSeed, err = strconv.ParseUint(value, 0, 64)
		k.mempressure.SqueezeSeed = k.overload.FaultSeed
	case "budgets":
		k.mempressure.Budgets, err = parseList(value, func(s string) (int, error) {
			b, err := strconv.Atoi(s)
			if err == nil && b < 0 {
				err = fmt.Errorf("%d is negative (0 = unbounded)", b)
			} else if err == nil && b > 0 && b < bench.MempressureThreads {
				err = fmt.Errorf("%d is below the %d-vproc pool (every vproc needs at least one chunk)", b, bench.MempressureThreads)
			}
			return b, err
		})
	case "machines":
		k.rackscale.Machines, err = parseList(value, func(s string) (string, error) {
			_, err := numa.Preset(s)
			return s, err
		})
	case "scale":
		k.rackscale.Scale, err = strconv.ParseFloat(value, 64)
	case "crash":
		k.failover.Crashes, err = parseList(value, workload.ParseCrashKind)
	case "replicas":
		k.failover.Replicas, err = parseList(value, func(s string) (int, error) {
			r, err := strconv.Atoi(s)
			if err == nil && r < 1 {
				err = fmt.Errorf("%d is not a positive replication level", r)
			}
			return r, err
		})
	default:
		err = errors.New("not a sweep knob")
	}
	if err != nil {
		return fmt.Errorf("-%s %s: %w", name, value, err)
	}
	return nil
}

// parseList parses a comma-separated knob value element by element.
func parseList[T any](value string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range strings.Split(value, ",") {
		v, err := parse(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
