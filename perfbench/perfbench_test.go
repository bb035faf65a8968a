package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newTestRunner(t *testing.T, name, repo string) (*runner, *bytes.Buffer) {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	r, err := newRunner(w, repo, &log)
	if err != nil {
		t.Fatal(err)
	}
	return r, &log
}

// Two passes at one seed give identical virtual results, work counters and
// GC event counts, and tracing moves none of them.
func TestPassesRepeat(t *testing.T) {
	r, log := newTestRunner(t, "kernels-p1", "..")
	seed, err := workloadSeed("7")
	if err != nil {
		t.Fatal(err)
	}
	r.prepare(seed)
	a := r.runPass(passOpts{seed: seed, traced: true})
	b := r.runPass(passOpts{seed: seed, traced: true})
	c := r.runPass(passOpts{seed: seed})
	if r.failed != 0 {
		t.Fatalf("%d points failed:\n%s", r.failed, log)
	}
	if da, db := digest(a), digest(b); da != db {
		t.Errorf("virtual digests differ: %#x vs %#x", da, db)
	}
	if sa, sb := sum(a.recs), sum(b.recs); sa != sb {
		t.Errorf("counters differ:\n%v\n%v", sa, sb)
	}
	if sum(a.recs).events() == 0 {
		t.Error("the traced pass counted no GC events")
	}
	if digest(a) != digest(c) {
		t.Error("tracing changed the virtual results or work counters")
	}
	r.repeats(a, []pass{b}, seed, true)
	r.repeats(a, []pass{c}, seed, false)
	if r.failed != 0 {
		t.Fatalf("repeats flagged %d points:\n%s", r.failed, log)
	}
}

// At the default seed every figures point matches BENCH_v3.json.
func TestFiguresMatchBaseline(t *testing.T) {
	r, log := newTestRunner(t, "figures", "..")
	r.prepare(defaultSeed)
	r.runPass(passOpts{seed: defaultSeed, baseline: true})
	if r.failed != 0 || r.attempted != 45 {
		t.Fatalf("%d of %d points failed:\n%s", r.failed, r.attempted, log)
	}
}

// A wrong reference checksum counts its points as failed.
func TestWrongCheckFails(t *testing.T) {
	r, log := newTestRunner(t, "kernels-p1", "..")
	r.prepare(defaultSeed)
	k := oracleID(r.points[0].oracleKey, defaultSeed)
	v := r.oracles[k]
	v.check ^= 1
	r.oracles[k] = v
	r.runPass(passOpts{seed: defaultSeed})
	if r.failed != 2 { // the kernel's point on each machine
		t.Fatalf("failed %d of %d, want 2:\n%s", r.failed, r.attempted, log)
	}
	if !strings.Contains(log.String(), "reference") {
		t.Errorf("log does not name the reference:\n%s", log)
	}
}

// A corrupt or missing committed baseline fails the points it should
// cover, without ending the run.
func TestCorruptBaselineFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_v3.json"), []byte(`{"scale": 0.25, "points": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, log := newTestRunner(t, "figures", dir)
	r.prepare(defaultSeed)
	r.runPass(passOpts{seed: defaultSeed, baseline: true})
	if r.failed != r.attempted || r.attempted == 0 {
		t.Fatalf("failed %d of %d, want all", r.failed, r.attempted)
	}
	if !strings.Contains(log.String(), "BENCH_v3.json") {
		t.Errorf("log does not name the file:\n%s", log)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"repro/internal/vtime.(*Engine).heapSiftDown", "/x/internal/vtime/engine.go", "vtime"},
		{"repro/internal/core.(*VProc).schedulerLoop", "/x/internal/core/sched.go", "core.sched"},
		{"repro/internal/core.(*Runtime).minorGC", "/x/internal/core/minor.go", "core.gc"},
		{"repro/internal/core.(*Channel).Send", "/x/internal/core/channel.go", "core.chan"},
		{"repro/internal/core.(*Runtime).InstallFaults", "/x/internal/core/faults.go", "core.fault"},
		{"repro/internal/core.newThing", "/x/internal/core/new.go", "other"},
		{"repro/internal/workload.RunDMM.func1", "/x/internal/workload/dmm.go", "workload"},
		{"repro/internal/newpkg.F", "/x/internal/newpkg/f.go", "other"},
	} {
		if got, ok := layerOf(c.fn, c.file); !ok || got != c.want {
			t.Errorf("layerOf(%s) = %q, %v; want %q", c.fn, got, ok, c.want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "main.main", "repro/perfbench.x"} {
		if _, ok := layerOf(fn, ""); ok {
			t.Errorf("layerOf(%s) claims a repository layer", fn)
		}
	}
}

// One short run in each mode prints exactly the metrics BENCHMARK.json
// lists, as the last line of standard output.
func TestRunPrintsDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "kernels-p1", "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace], "--repo", ".."}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]jsonMetric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %d: correct %v, %d of %d failed: %s", trace, res.Correct, res.Failed, res.Attempted, stderr.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "figures", "--seed", "-1"},
		{"--workload", "figures", "--trace", "2"},
		{"--workload", "figures", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
