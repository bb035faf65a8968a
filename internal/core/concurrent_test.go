package core

import "testing"

// concurrentStressConfig is stressConfig with the mostly-concurrent global
// collector enabled (the pacer inherits the same trigger floor, so cycles
// fire just as often as the STW collector's).
func concurrentStressConfig(nvprocs int) Config {
	cfg := stressConfig(nvprocs)
	cfg.ConcurrentGlobal = true
	return cfg
}

// concurrentMutators runs the promotion-heavy multi-vproc mutator of
// TestGlobalGCReclaimsAndPreserves and returns the makespan plus the
// before/after live-set checksums — the graph-preservation probe shared by
// the concurrent-mode tests.
func concurrentMutators(rt *Runtime, nv int) (int64, []uint64, []uint64) {
	wants := make([]uint64, nv)
	sums := make([]uint64, nv)
	mk := rt.Run(func(vp *VProc) {
		for i := 0; i < nv; i++ {
			i := i
			vp.Spawn(func(vp *VProc, _ Env) {
				a := buildTree(vp, 6, uint64(i+1))
				slot := vp.PushRoot(a)
				wants[i] = checksumTree(vp, vp.Root(slot))
				for round := 0; round < 6; round++ {
					vp.PromoteRoot(slot)
					b := buildTree(vp, 5, uint64(round))
					bs := vp.PushRoot(b)
					vp.PromoteRoot(bs)
					vp.PopRoots(1)
					churn(vp, 800, 6)
				}
				sums[i] = checksumTree(vp, vp.Root(slot))
				vp.PopRoots(1)
			})
		}
	})
	return mk, wants, sums
}

// TestConcurrentGCPreservesGraph: the tri-color cycle, interleaved with
// promotion-heavy mutators on every vproc, preserves the live graph; the
// Debug verifier (heap invariants after every phase plus the tri-color check
// at each mark termination) stays clean throughout.
func TestConcurrentGCPreservesGraph(t *testing.T) {
	const nv = 4
	rt := MustNewRuntime(concurrentStressConfig(nv))
	_, wants, sums := concurrentMutators(rt, nv)
	if rt.Stats.GlobalGCs == 0 {
		t.Fatalf("expected concurrent global collections (chunks active: %d)", len(rt.Chunks.Active()))
	}
	for i := range sums {
		if sums[i] != wants[i] {
			t.Errorf("vproc task %d: checksum %d, want %d", i, sums[i], wants[i])
		}
	}
	total := rt.TotalStats()
	if total.MarkAssistWords == 0 {
		t.Error("no mark-assist work recorded — the cycle was not concurrent")
	}
	if rt.Stats.SnapshotNs == 0 || rt.Stats.TermNs == 0 {
		t.Errorf("STW windows not recorded: snapshot %d ns, termination %d ns",
			rt.Stats.SnapshotNs, rt.Stats.TermNs)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants at end: %v", err)
	}
}

// TestConcurrentGCEquivalence: a concurrent-mode run reaches the same final
// live-set contents as the STW run of the identical program — the collectors
// may schedule work differently (makespans differ), but the surviving graph
// may not.
func TestConcurrentGCEquivalence(t *testing.T) {
	const nv = 4
	run := func(concurrent bool) ([]uint64, []uint64, int) {
		cfg := stressConfig(nv)
		cfg.ConcurrentGlobal = concurrent
		rt := MustNewRuntime(cfg)
		_, wants, sums := concurrentMutators(rt, nv)
		if err := rt.VerifyHeap(); err != nil {
			t.Fatalf("concurrent=%v: heap invariants: %v", concurrent, err)
		}
		return wants, sums, rt.Stats.GlobalGCs
	}
	stwWants, stwSums, stwGCs := run(false)
	conWants, conSums, conGCs := run(true)
	if stwGCs == 0 || conGCs == 0 {
		t.Fatalf("both modes must collect: stw %d cycles, concurrent %d cycles", stwGCs, conGCs)
	}
	for i := range stwSums {
		// Same program, same seed: the live set each mutator builds (and
		// still observes at the end) is collector-independent.
		if stwWants[i] != conWants[i] || stwSums[i] != conSums[i] {
			t.Errorf("task %d: live-set checksums diverge across collectors: stw %d/%d, concurrent %d/%d",
				i, stwWants[i], stwSums[i], conWants[i], conSums[i])
		}
	}
}

// TestConcurrentGCOffBitIdentical: with the flag off the concurrent machinery
// is dead weight — a run under the new code, even with the pacer knob set, is
// bit-identical to the default configuration, and every concurrent-mode
// counter stays zero.
func TestConcurrentGCOffBitIdentical(t *testing.T) {
	const nv = 4
	run := func(gcPercent int) (int64, VPStats, RTStats, []uint64) {
		cfg := stressConfig(nv)
		cfg.GCPercent = gcPercent
		rt := MustNewRuntime(cfg)
		mk, _, sums := concurrentMutators(rt, nv)
		return mk, rt.TotalStats(), rt.Stats, sums
	}
	mk1, s1, g1, c1 := run(0)
	mk2, s2, g2, c2 := run(400) // pacer knob must be inert with the flag off
	if mk1 != mk2 || s1 != s2 || g1 != g2 {
		t.Errorf("flag-off runs not bit-identical:\n  %d ns %+v %+v\n  %d ns %+v %+v",
			mk1, s1, g1, mk2, s2, g2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("task %d checksum differs flag-off: %d vs %d", i, c1[i], c2[i])
		}
	}
	if s1.BarrierHits != 0 || s1.BarrierNs != 0 || s1.MarkAssistWords != 0 || s1.MarkAssistNs != 0 {
		t.Errorf("concurrent counters nonzero with the flag off: %+v", s1)
	}
	if g1.SnapshotNs != 0 || g1.TermNs != 0 {
		t.Errorf("STW-window counters nonzero with the flag off: snapshot %d, term %d",
			g1.SnapshotNs, g1.TermNs)
	}
	if g1.GlobalGCs == 0 {
		t.Error("flag-off run exercised no global collections — the identity check is vacuous")
	}
}

// TestConcurrentGCDeterministic: concurrent-mode runs are bit-deterministic
// across reruns — the marking interleaving is part of the virtual schedule,
// not host nondeterminism.
func TestConcurrentGCDeterministic(t *testing.T) {
	const nv = 4
	run := func() (int64, VPStats, RTStats, uint64) {
		rt := MustNewRuntime(concurrentStressConfig(nv))
		mk, _, sums := concurrentMutators(rt, nv)
		var fold uint64
		for _, s := range sums {
			fold = fold*1099511628211 ^ s
		}
		return mk, rt.TotalStats(), rt.Stats, fold
	}
	mk1, s1, g1, c1 := run()
	mk2, s2, g2, c2 := run()
	if mk1 != mk2 || s1 != s2 || g1 != g2 || c1 != c2 {
		t.Errorf("rerun diverged:\n  %d ns %+v %+v %d\n  %d ns %+v %+v %d",
			mk1, s1, g1, c1, mk2, s2, g2, c2)
	}
	if g1.GlobalGCs == 0 {
		t.Error("no concurrent collections ran — determinism check is vacuous")
	}
}

// TestConcurrentGCCrashMidMark: a crash storm under the concurrent collector
// stays bit-deterministic and verifier-clean. The random plans land kills
// before, inside, and after marks; a dead vproc's gray current chunk must be
// adopted by the survivors (or the termination rescan) — a lost gray set
// would surface as a tri-color violation or a dangling from-space pointer.
func TestConcurrentGCCrashMidMark(t *testing.T) {
	const (
		nv      = 8
		iters   = 500
		crashes = 3
	)
	for seed := uint64(1); seed <= 5; seed++ {
		run := func() (int64, VPStats, RTStats) {
			rt := MustNewRuntime(concurrentStressConfig(nv))
			rt.InstallFaults(RandomCrashPlan(seed, nv, 1, crashes, 150_000))
			elapsed := crashTestWorkload(rt, iters)
			if err := rt.VerifyHeap(); err != nil {
				t.Fatalf("seed %d: heap invariants after crash storm: %v", seed, err)
			}
			return elapsed, rt.TotalStats(), rt.Stats
		}
		e1, s1, g1 := run()
		e2, s2, g2 := run()
		if e1 != e2 || s1 != s2 || g1 != g2 {
			t.Errorf("seed %d: crashed concurrent reruns diverged:\n  %d ns %+v %+v\n  %d ns %+v %+v",
				seed, e1, s1, g1, e2, s2, g2)
		}
		if s1.Crashes != crashes {
			t.Errorf("seed %d: Crashes = %d, want %d", seed, s1.Crashes, crashes)
		}
		if g1.GlobalGCs == 0 {
			t.Errorf("seed %d: no concurrent collections — crash storm not exercising the mark protocol", seed)
		}
	}
}

// TestConcurrentGCWriteBarrierShades: a mutator that stores freshly promoted
// values into black global cells during marks relies entirely on the
// insertion barrier; the stored graph must survive the cycle. The workload
// alternates ref writes with churn so stores land inside active marks.
func TestConcurrentGCWriteBarrierShades(t *testing.T) {
	const nv = 4
	cfg := concurrentStressConfig(nv)
	rt := MustNewRuntime(cfg)
	var finals [nv]uint64
	rt.Run(func(vp *VProc) {
		for i := 0; i < nv; i++ {
			i := i
			vp.Spawn(func(vp *VProc, _ Env) {
				// One long-lived global cell per task, rewritten many
				// times; each round's value is a fresh tree that must be
				// shaded when stored.
				s := vp.PushRoot(buildTree(vp, 3, uint64(i+1)))
				ref := vp.NewRef(s)
				rs := vp.PushRoot(ref)
				for round := 0; round < 24; round++ {
					ts := vp.PushRoot(buildTree(vp, 4, uint64(round+1)))
					vp.WriteRef(vp.Root(rs), ts)
					vp.PopRoots(1)
					churn(vp, 300, 6)
				}
				finals[i] = checksumTree(vp, vp.ReadRef(vp.Root(rs)))
				vp.PopRoots(2)
			})
		}
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("no concurrent collections ran")
	}
	// The last written tree is depth 4 with val 24 on every task.
	want := finals[0]
	for i, f := range finals {
		if f != want {
			t.Errorf("task %d final checksum %d, want %d", i, f, want)
		}
	}
	probe := MustNewRuntime(concurrentStressConfig(1))
	var expect uint64
	probe.Run(func(vp *VProc) {
		expect = checksumTree(vp, buildTree(vp, 4, 24))
	})
	if want != expect {
		t.Errorf("surviving ref contents %d, want tree(4,24) = %d", want, expect)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants at end: %v", err)
	}
}

// TestConcurrentGCChannelTraffic: cross-vproc channel traffic during
// concurrent marks — the sender-side resolve discipline and the
// termination-time global-root object rescan must keep every in-flight
// message reachable and current.
func TestConcurrentGCChannelTraffic(t *testing.T) {
	const (
		nv   = 4
		msgs = 300
	)
	cfg := concurrentStressConfig(nv)
	rt := MustNewRuntime(cfg)
	ch := rt.NewChannel()
	var got, want uint64
	rt.Run(func(vp *VProc) {
		for i := 0; i < nv-1; i++ {
			i := i
			vp.Spawn(func(svp *VProc, _ Env) {
				for m := 0; m < msgs; m++ {
					v := uint64(i*msgs + m + 1)
					s := svp.PushRoot(svp.AllocRaw([]uint64{v, v * 31}))
					ch.Send(svp, s)
					svp.PopRoots(1)
					churn(svp, 60, 8)
				}
			})
		}
		vp.Spawn(func(rvp *VProc, _ Env) {
			for m := 0; m < (nv-1)*msgs; m++ {
				a := ch.Recv(rvp)
				p := rvp.ReadBlock(a)
				if p[1] != p[0]*31 {
					t.Errorf("message %d corrupted: [%d %d]", m, p[0], p[1])
				}
				got += p[0]
				churn(rvp, 40, 8)
			}
		})
	})
	for i := 0; i < nv-1; i++ {
		for m := 0; m < msgs; m++ {
			want += uint64(i*msgs + m + 1)
		}
	}
	if got != want {
		t.Errorf("received fold %d, want %d", got, want)
	}
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("no concurrent collections ran during channel traffic")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants at end: %v", err)
	}
}
