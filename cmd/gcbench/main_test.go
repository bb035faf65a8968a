package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

func flagSet(names ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return set
}

// TestCheckFlagsRejects: a flag that does not apply to the selected mode
// fails up front, never silently ignored.
func TestCheckFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		desc, sweep string
		flags       []string
		want        string
	}{
		{"unknown sweep", "nope", []string{"sweep"}, `unknown -sweep "nope"`},
		{"knob under the wrong sweep", "latency", []string{"sweep", "budgets"}, "-budgets only applies to -sweep mempressure"},
		{"knob with -compare", "overload", []string{"sweep", "loads", "compare"}, "fixed configuration; remove -loads"},
		{"knob with -baseline", "rackscale", []string{"sweep", "scale", "baseline"}, "fixed configuration; remove -scale"},
		{"-gc outside latency", "overload", []string{"sweep", "gc"}, "-gc only applies to -sweep latency"},
		{"-gc without a sweep", "", []string{"gc"}, "-gc only applies to -sweep latency"},
		{"-gc with the figures baseline", "", []string{"gc", "compare"}, "-gc only applies to -sweep latency"},
		{"knob without a sweep", "", []string{"admission"}, "-admission only applies to -sweep overload/mempressure"},
		{"figure flag under a sweep", "failover", []string{"sweep", "figure"}, "remove -figure"},
		{"-scale outside rackscale", "latency", []string{"sweep", "scale"}, "-scale only applies to -sweep rackscale"},
		{"-baseline with -compare", "", []string{"baseline", "compare"}, "mutually exclusive"},
	} {
		_, err := checkFlags(tc.sweep, flagSet(tc.flags...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.desc, err, tc.want)
		}
	}
}

// TestCheckFlagsAccepts: the modes every documented command line uses.
func TestCheckFlagsAccepts(t *testing.T) {
	for _, tc := range []struct {
		sweep string
		flags []string
		want  string // selected sweep, "" for the figure modes
	}{
		{"", []string{"figure", "scale", "j", "v"}, ""},
		{"", []string{"machine", "policy", "threads", "bench", "cpuprofile"}, ""},
		{"", []string{"compare", "j"}, "figures"},
		{"latency", []string{"sweep", "gc", "compare"}, "latency"},
		{"overload", []string{"sweep", "loads", "admission", "fault-seed", "v"}, "overload"},
		{"mempressure", []string{"sweep", "budgets", "admission", "fault-seed"}, "mempressure"},
		{"rackscale", []string{"sweep", "machines", "scale", "j"}, "rackscale"},
		{"failover", []string{"sweep", "crash", "replicas"}, "failover"},
		{"failover", []string{"sweep", "baseline", "memprofile"}, "failover"},
	} {
		sw, err := checkFlags(tc.sweep, flagSet(tc.flags...))
		got := ""
		if sw != nil {
			got = sw.name
		}
		if err != nil || got != tc.want {
			t.Errorf("-sweep %q with %v: got sweep %q, error %v; want sweep %q", tc.sweep, tc.flags, got, err, tc.want)
		}
	}
}

// TestKnobValues: bad knob values are rejected, never clamped, and
// -admission configures both sweeps that list it.
func TestKnobValues(t *testing.T) {
	for _, kv := range [][2]string{
		{"gc", "parallel"}, {"loads", "1"}, {"loads", "x"}, {"admission", "lifo"}, {"fault-seed", "-1"},
		{"budgets", "-1"}, {"budgets", "8"}, {"machines", "vax"}, {"scale", "big"}, {"crash", "disk"}, {"replicas", "0"},
	} {
		if err := defaultKnobs().set(kv[0], kv[1]); err == nil {
			t.Errorf("-%s %s accepted", kv[0], kv[1])
		}
	}
	k := defaultKnobs()
	if err := k.set("admission", "memory"); err != nil {
		t.Fatal(err)
	}
	for _, adms := range [][]workload.AdmissionPolicy{k.overload.Admissions, k.mempressure.Admissions} {
		if len(adms) != 1 || adms[0] != workload.AdmitMemory {
			t.Errorf("-admission memory left admissions %v", adms)
		}
	}
}

// TestRegistryMatchesCommittedBaselines: each registry entry writes the
// version and scale its committed baseline's envelope records, so a
// re-recorded file differs from the committed one only in host fields.
func TestRegistryMatchesCommittedBaselines(t *testing.T) {
	for _, tc := range []struct{ file, sweep, gc string }{
		{"BENCH_v3.json", "figures", ""},
		{"LATENCY_v1.json", "latency", "stw"},
		{"LATENCY_v2.json", "latency", "both"},
		{"OVERLOAD_v1.json", "overload", ""},
		{"MEMPRESSURE_v1.json", "mempressure", ""},
		{"SCALE_v1.json", "rackscale", ""},
		{"FAILOVER_v1.json", "failover", ""},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Version int
			Scale   float64
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		sw, err := checkFlags(tc.sweep, flagSet("sweep", "compare"))
		if err != nil {
			t.Fatal(err)
		}
		k := defaultKnobs()
		if tc.gc != "" {
			if err := k.set("gc", tc.gc); err != nil {
				t.Fatal(err)
			}
		}
		if v := sw.version(k); v != env.Version || sw.scale != env.Scale {
			t.Errorf("%s: -sweep %s writes version %d scale %g; the file records version %d scale %g",
				tc.file, tc.sweep, v, sw.scale, env.Version, env.Scale)
		}
	}
}
