package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/heap"
)

// Idle-parking scenarios: one small program per wake source of idle.go.
// Each pins the makespan, the total failed steal sweeps and every vproc's
// final clock to the values of the polling scheduler (every idle probe run
// as its own engine turn). A parked vproc that is woken late, early into a
// turn that then acts, or not at all moves at least one of them.

type idleOutcome struct {
	makespan     int64
	failedSteals int64
	clocks       []int64
}

type idleScenario struct {
	name  string
	cfg   func(cfg *Config)
	entry func(t *testing.T, rt *Runtime, vp *VProc)
	// check asserts that the run exercised the scenario's wake source.
	check func(t *testing.T, rt *Runtime)
	want  idleOutcome
}

// computeTask is a task body that computes for ns.
func computeTask(ns int64) func(vp *VProc, _ Env) {
	return func(vp *VProc, _ Env) { vp.Compute(ns) }
}

var idleScenarios = []idleScenario{
	{
		// Tasks pushed one at a time while every other vproc is parked:
		// each push wakes the earliest parked observer at its probe.
		name: "spawn",
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			var ts []*Task
			for i := 0; i < 6; i++ {
				vp.Compute(5000)
				ts = append(ts, vp.Spawn(computeTask(20000)))
			}
			for _, tk := range ts {
				vp.Join(tk)
			}
		},
		check: func(t *testing.T, rt *Runtime) {
			if rt.TotalStats().Steals == 0 {
				t.Error("no task was stolen")
			}
		},
		want: idleOutcome{52130, 75, []int64{51880, 52130, 51980, 51740}},
	},
	{
		// Tasks pushed back to back whose environments take a while to
		// promote: while a thief promotes, the victim is heapBusy; the
		// clear, with tasks still queued, wakes the next parked observer.
		name: "heapbusy-clear",
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			var slots []int
			for i := 0; i < 4; i++ {
				slots = append(slots, vp.PushRoot(buildTree(vp, 5, uint64(i+1))))
			}
			var ts []*Task
			for _, s := range slots {
				ts = append(ts, vp.Spawn(func(vp *VProc, e Env) {
					vp.Compute(int64(checksumTree(vp, e.Get(vp, 0)) % 5000))
				}, vp.Root(s)))
			}
			vp.PopRoots(4)
			vp.Compute(200000)
			for _, tk := range ts {
				vp.Join(tk)
			}
		},
		check: func(t *testing.T, rt *Runtime) {
			if rt.TotalStats().Steals < 2 {
				t.Errorf("%d steals, want at least 2", rt.TotalStats().Steals)
			}
		},
		want: idleOutcome{203200, 784, []int64{202880, 202713, 203200, 203118}},
	},
	{
		// A global collection requested while the other vprocs are
		// parked: the signal wakes each at its next loop top.
		name: "global",
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			vp.Compute(30000)
			for i := 0; i < 12; i++ {
				vp.Promote(buildTree(vp, 7, uint64(i)))
				vp.Compute(2000)
			}
		},
		check: func(t *testing.T, rt *Runtime) {
			if rt.Stats.GlobalGCs == 0 {
				t.Error("no global collection ran")
			}
		},
		want: idleOutcome{98715, 373, []int64{98715, 98582, 98582, 98582}},
	},
	{
		// The same under the concurrent collector: the snapshot request
		// wakes the parked vprocs, which then poll through the mark and
		// the termination window (parking is off while marking).
		name: "termination",
		cfg:  func(cfg *Config) { cfg.ConcurrentGlobal = true },
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			vp.Compute(30000)
			for i := 0; i < 12; i++ {
				vp.Promote(buildTree(vp, 7, uint64(i)))
				vp.Compute(2000)
			}
		},
		check: func(t *testing.T, rt *Runtime) {
			if rt.Stats.GlobalGCs == 0 {
				t.Error("no concurrent cycle terminated")
			}
		},
		want: idleOutcome{101473, 374, []int64{101473, 101322, 101322, 101322}},
	},
	{
		// The owner joins a task a thief is running and parks; the
		// task's completion wakes it at its next loop top.
		name: "join",
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			tk := vp.Spawn(computeTask(100000))
			vp.Compute(3000)
			vp.Join(tk)
			vp.Compute(1000)
		},
		check: func(t *testing.T, rt *Runtime) {
			if rt.TotalStats().Steals != 1 {
				t.Errorf("%d steals, want the joined task stolen", rt.TotalStats().Steals)
			}
		},
		want: idleOutcome{102400, 403, []int64{102400, 102200, 102200, 102250}},
	},
	{
		// Unjoined tasks of different lengths: when the last completes,
		// the outstanding count reaches zero and every parked vproc
		// wakes at its next sweep end to quiesce.
		name: "quiescence",
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			vp.Spawn(computeTask(70000))
			vp.Spawn(computeTask(45000))
			vp.Compute(1000)
		},
		want: idleOutcome{71040, 222, []int64{70680, 71040, 71040, 70730}},
	},
	{
		// Timer continuations on an idle vproc: its park is bounded by
		// the deadline, and the fired continuation spawns stealable
		// work.
		name: "timer",
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			vp.AfterThen(50000, nil, computeTask(10000))
			vp.AfterThen(120000, nil, func(vp *VProc, _ Env) {
				vp.Spawn(computeTask(30000))
				vp.Spawn(computeTask(30000))
				vp.Compute(5000)
			})
		},
		check: func(t *testing.T, rt *Runtime) {
			if rt.TotalStats().TimersFired != 2 {
				t.Errorf("%d timers fired, want 2", rt.TotalStats().TimersFired)
			}
		},
		want: idleOutcome{151960, 701, []int64{151960, 151600, 151690, 151570}},
	},
	{
		// A receive continuation parked on a thief that then idles; the
		// send queues the continuation on its parked owner, which
		// observes its queue at its next loop top — here before any
		// other vproc probes it.
		name: "channel",
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			ch := rt.NewChannel()
			tk := vp.Spawn(func(vp *VProc, _ Env) {
				ch.RecvThen(vp, nil, func(vp *VProc, _ Env, msg heap.Addr) {
					vp.Compute(15000)
				})
			})
			vp.Compute(20424)
			s := vp.PushRoot(vp.AllocRaw([]uint64{7}))
			ch.Send(vp, s)
			vp.PopRoots(1)
			vp.Join(tk)
		},
		check: func(t *testing.T, rt *Runtime) {
			if rt.TotalStats().ChanRecvs != 1 {
				t.Errorf("%d receives, want 1", rt.TotalStats().ChanRecvs)
			}
		},
		want: idleOutcome{38360, 153, []int64{37938, 38360, 38360, 38057}},
	},
	{
		// A divide-and-conquer tree: victims turn stealable in bursts,
		// so a parked vproc is often the first observer of several,
		// leaves the idle sweep through one and hands the others on.
		name: "observer-exit",
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			vp.ParallelRange(0, 16, 1, nil, func(vp *VProc, lo, hi int, _ Env) {
				vp.Compute(int64(lo*37%11+1) * 1000)
			})
		},
		want: idleOutcome{28350, 30, []int64{28330, 28350, 28050, 28290}},
	},
}

// channelTimeoutScenario races a send against a receive timeout: the
// owner of the timed receive idles with its park bounded by the deadline,
// and the send, lead ns before the deadline, cancels the timer. The owner's
// next turn after the send must recompute its schedule without the clamp.
func channelTimeoutScenario(lead int64) idleScenario {
	return idleScenario{
		name: fmt.Sprintf("channel-timeout-%d", lead),
		entry: func(t *testing.T, rt *Runtime, vp *VProc) {
			ch := rt.NewChannel()
			const timeout = 60000
			var deadline int64
			tk := vp.Spawn(func(vp *VProc, _ Env) {
				deadline = vp.Now() + timeout
				ch.RecvThenTimeout(vp, timeout, nil, func(vp *VProc, _ Env, msg heap.Addr, ok bool) {
					vp.Compute(5000)
				})
			})
			vp.Compute(20000)
			vp.Compute(deadline - lead - vp.Now())
			s := vp.PushRoot(vp.AllocRaw([]uint64{7}))
			ch.Send(vp, s)
			vp.PopRoots(1)
			vp.Join(tk)
		},
		check: func(t *testing.T, rt *Runtime) {
			if rt.TotalStats().TimersFired != 0 {
				t.Error("the timeout fired before the send")
			}
		},
	}
}

// channelTimeoutWants pins channelTimeoutScenario at leads whose sends
// (which charge about a microsecond before delivering) land within one
// idle-sweep period of the deadline, between the owner's last scheduled
// turn before it and the deadline itself.
var channelTimeoutWants = []struct {
	lead int64
	want idleOutcome
}{
	{1221, idleOutcome{67240, 266, []int64{66783, 66890, 67240, 66810}}},
	{1480, idleOutcome{66850, 265, []int64{66524, 66480, 66817, 66850}}},
	{1554, idleOutcome{67210, 266, []int64{67210, 66480, 66817, 66850}}},
}

func runIdleScenario(t *testing.T, sc idleScenario) idleOutcome {
	cfg := stressConfig(4)
	if sc.cfg != nil {
		sc.cfg(&cfg)
	}
	rt := MustNewRuntime(cfg)
	var out idleOutcome
	out.makespan = rt.Run(func(vp *VProc) { sc.entry(t, rt, vp) })
	out.failedSteals = rt.TotalStats().FailedSteals
	for _, vp := range rt.VProcs {
		out.clocks = append(out.clocks, vp.Now())
	}
	if sc.check != nil {
		sc.check(t, rt)
	}
	return out
}

func TestIdleParkingScenarios(t *testing.T) {
	scenarios := append([]idleScenario(nil), idleScenarios...)
	for _, c := range channelTimeoutWants {
		sc := channelTimeoutScenario(c.lead)
		sc.want = c.want
		scenarios = append(scenarios, sc)
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := runIdleScenario(t, sc)
			if fmt.Sprint(got) != fmt.Sprint(sc.want) {
				t.Errorf("got  %+v\nwant %+v", got, sc.want)
			}
		})
	}
}

// TestOrphanedReceiveDeadlocks runs a program whose only outstanding work
// is a continuation on a channel nobody will send to. Every vproc ends up
// idle with nothing that could wake it, which the engine must report as a
// deadlock instead of polling forever. The report is a panic out of rt.Run.
func TestOrphanedReceiveDeadlocks(t *testing.T) {
	rt := MustNewRuntime(stressConfig(2))
	got := func() (r any) {
		defer func() { r = recover() }()
		rt.Run(func(vp *VProc) {
			rt.NewChannel().RecvThen(vp, nil, func(*VProc, Env, heap.Addr) {})
		})
		return nil
	}()
	if got == nil {
		t.Fatal("orphaned receive returned normally")
	}
	if !strings.Contains(fmt.Sprint(got), "vtime: deadlock") {
		t.Fatalf("orphaned receive panicked without a deadlock report: %v", got)
	}
}
