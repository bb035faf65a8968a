package vtime

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSerializedMinClockOrder(t *testing.T) {
	e := NewEngine(3)
	var order []int
	e.Run(func(p *Proc) {
		// Proc i advances by (i+1)*10 per step; the engine must always
		// run the minimum-clock proc next.
		for s := 0; s < 4; s++ {
			order = append(order, p.ID)
			p.Advance(int64((p.ID + 1) * 10))
		}
	})
	// Hand-traced min-clock schedule (ties by ID). Each proc records
	// before advancing, so the first three events are 0,1,2 at clock 0;
	// then proc 0 (clock 10) runs twice to pass proc 1 (20), and so on.
	want := []int{0, 1, 2, 0, 0, 1, 0, 2, 1, 1, 2, 2}
	if len(order) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, order[i], want[i], order)
		}
	}
}

func TestAdvanceAccumulatesClock(t *testing.T) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(5)
		}
		if p.Now() != 50 {
			t.Errorf("proc %d clock = %d, want 50", p.ID, p.Now())
		}
	})
	if e.MaxClock() != 50 {
		t.Errorf("makespan = %d, want 50", e.MaxClock())
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine(2)
	var woken bool
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			p.Block()
			woken = true
			// Clock must have been advanced to at least the
			// waker's clock.
			if p.Now() < 100 {
				t.Errorf("woken proc clock = %d, want >= 100", p.Now())
			}
			return
		}
		p.Advance(100)
		p.Wake(e.Proc(1))
		p.Advance(1)
	})
	if !woken {
		t.Fatal("blocked proc never resumed")
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	e := NewEngine(4)
	b := NewBarrier(4, 7)
	e.Run(func(p *Proc) {
		p.Advance(int64(p.ID) * 100) // arrive at different times
		b.Arrive(p)
		// Everyone resumes at max arrival (300) + sync cost (7).
		if p.Now() != 307 {
			t.Errorf("proc %d resumed at %d, want 307", p.ID, p.Now())
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine(2)
	b := NewBarrier(2, 1)
	e.Run(func(p *Proc) {
		for round := 0; round < 5; round++ {
			p.Advance(int64(p.ID+1) * 3)
			b.Arrive(p)
		}
	})
	if e.Proc(0).Now() != e.Proc(1).Now() {
		t.Errorf("clocks diverged after barrier rounds: %d vs %d", e.Proc(0).Now(), e.Proc(1).Now())
	}
}

// TestBarrierDropReleasesWaiters: dropping a participant that waiters are
// already parked for releases them exactly as a last arrival would — at
// max(arrival clocks) + SyncCost — while the dropper's own clock stays
// untouched (it is leaving the rendezvous, not joining it).
func TestBarrierDropReleasesWaiters(t *testing.T) {
	e := NewEngine(3)
	b := NewBarrier(3, 7)
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Advance(500) // outlive both arrivals, then bow out
			b.Drop(p)
			if p.Now() != 500 {
				t.Errorf("dropper advanced to %d, want 500", p.Now())
			}
			return
		}
		p.Advance(int64(p.ID) * 100)
		b.Arrive(p)
		if p.Now() != 207 { // max arrival 200 + sync cost 7
			t.Errorf("proc %d resumed at %d, want 207", p.ID, p.Now())
		}
	})
}

// TestBarrierDropShrinksLaterRounds: a drop before anyone arrives lowers
// the expected count for every subsequent round, and the barrier stays
// reusable for the survivors.
func TestBarrierDropShrinksLaterRounds(t *testing.T) {
	e := NewEngine(3)
	b := NewBarrier(3, 1)
	e.Run(func(p *Proc) {
		if p.ID == 2 {
			b.Drop(p)
			return
		}
		for round := 0; round < 3; round++ {
			p.Advance(int64(p.ID+1) * 5)
			b.Arrive(p)
		}
	})
	if e.Proc(0).Now() != e.Proc(1).Now() {
		t.Errorf("clocks diverged after dropped-participant rounds: %d vs %d",
			e.Proc(0).Now(), e.Proc(1).Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	var panicked atomic.Bool
	e.Run(func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		p.Block() // nobody will ever wake us: must panic, not hang
	})
	if !panicked.Load() {
		t.Fatal("expected deadlock panic")
	}
}

func TestParkedDeadlockDetection(t *testing.T) {
	// A proc parked with nothing left running to wake it is a deadlock,
	// exactly like a Blocked one: the engine must panic, not hang.
	e := NewEngine(1)
	var msg atomic.Value
	e.Run(func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				msg.Store(fmt.Sprint(r))
			}
		}()
		p.StepWhile(func() (int64, bool) { return Park, false })
	})
	got, _ := msg.Load().(string)
	if !strings.Contains(got, "parked with no ready proc") {
		t.Fatalf("panic = %q, want a parked-proc deadlock", got)
	}
}

func TestWakeAtReinsertsAndDecreasesKey(t *testing.T) {
	// Proc 1 parks outright; proc 2 parks bounded at 1000 (a plain charge
	// while skipping). Proc 0 wakes proc 1 at 300 (re-insert) and proc 2
	// at 500 (decrease-key), then at 900 for proc 1 (no-op: already due).
	e := NewEngine(3)
	var ran [3][]int64
	e.Run(func(p *Proc) {
		switch p.ID {
		case 0:
			p.Advance(100)
			p.WakeAt(e.Proc(1), 300)
			p.WakeAt(e.Proc(2), 500)
			p.WakeAt(e.Proc(1), 900)
			p.Advance(1000)
		case 1, 2:
			calls := 0
			p.StepWhile(func() (int64, bool) {
				ran[p.ID] = append(ran[p.ID], p.Now())
				calls++
				switch {
				case calls == 2:
					return 0, true
				case p.ID == 1:
					return Park, false
				default:
					return 1000, false
				}
			})
		}
	})
	want := [3][]int64{nil, {0, 300}, {0, 500}}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("step turns at %v, want %v", ran, want)
	}
	st := e.Stats()
	if st.Parks != 1 || st.Wakes != 2 {
		t.Fatalf("Parks, Wakes = %d, %d; want 1, 2", st.Parks, st.Wakes)
	}
}

func TestWakeAtRejectsPast(t *testing.T) {
	// A wake at or before the waker's own key would rewrite history.
	e := NewEngine(2)
	var msg atomic.Value
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			p.StepWhile(func() (int64, bool) {
				if p.Now() > 0 {
					return 0, true
				}
				return Park, false
			})
			return
		}
		func() {
			defer func() { msg.Store(fmt.Sprint(recover())) }()
			p.Advance(50)
			p.WakeAt(e.Proc(1), 40)
		}()
		p.WakeAt(e.Proc(1), 60)
	})
	if got, _ := msg.Load().(string); !strings.Contains(got, "not after its own key") {
		t.Fatalf("panic = %q, want a past-wake rejection", got)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := NewEngine(1)
	var panicked atomic.Bool
	e.Run(func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		p.Advance(-1)
	})
	if !panicked.Load() {
		t.Fatal("expected panic on negative advance")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		e := NewEngine(5)
		var trace []int
		e.Run(func(p *Proc) {
			for i := 0; i < 20; i++ {
				trace = append(trace, p.ID)
				// Pseudo-random but deterministic advances.
				p.Advance(int64((p.ID*7+i*13)%23 + 1))
			}
		})
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// stepTrace runs n procs where proc 0 records its schedule via StepWhile
// and the rest advance normally; used to prove StepWhile is schedule-
// equivalent to an explicit Advance loop.
func stepTrace(useStep bool) []int64 {
	e := NewEngine(3)
	var trace []int64
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			steps := 0
			if useStep {
				p.StepWhile(func() (int64, bool) {
					trace = append(trace, p.Now())
					steps++
					if steps > 12 {
						return 0, true
					}
					return 7, false
				})
				return
			}
			for {
				trace = append(trace, p.Now())
				steps++
				if steps > 12 {
					return
				}
				p.Advance(7)
			}
		}
		for s := 0; s < 10; s++ {
			p.Advance(int64(p.ID) * 5)
		}
	})
	return trace
}

func TestStepWhileMatchesAdvanceLoop(t *testing.T) {
	a, b := stepTrace(false), stepTrace(true)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: clock %d vs %d (full: %v vs %v)", i, a[i], b[i], a, b)
		}
	}
}

// TestStepWhileInline checks that a parked stepper's turns execute at the
// correct virtual instants while another proc advances past it, and that
// the stepper resumes on its own stack at the instant its step function
// reports done.
func TestStepWhileInline(t *testing.T) {
	e := NewEngine(2)
	var observed []int64
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			p.StepWhile(func() (int64, bool) {
				observed = append(observed, p.Now())
				if p.Now() >= 40 {
					return 0, true
				}
				return 10, false
			})
			if p.Now() != 40 {
				t.Errorf("stepper resumed at clock %d, want 40", p.Now())
			}
			return
		}
		for i := 0; i < 100; i++ {
			p.Advance(1)
		}
	})
	want := []int64{0, 10, 20, 30, 40}
	if len(observed) != len(want) {
		t.Fatalf("observed %v, want %v", observed, want)
	}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("observed %v, want %v", observed, want)
		}
	}
}

// TestWakeLowersHorizon pins the subtle horizon-refresh rule: waking a proc
// whose clock ties the waker's must prevent the waker's fast path from
// running past it when the woken proc has the smaller ID.
func TestWakeLowersHorizon(t *testing.T) {
	e := NewEngine(2)
	var order []string
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Block()
			order = append(order, "p0-woken")
			return
		}
		p.Advance(5)
		p.Wake(e.Proc(0)) // p0's clock becomes 5, tying ours with smaller ID
		p.Advance(0)      // tie ⇒ p0 (smaller ID) must run first
		order = append(order, "p1-after")
	})
	if len(order) != 2 || order[0] != "p0-woken" || order[1] != "p1-after" {
		t.Fatalf("wrong wakeup schedule: %v", order)
	}
}

// TestStepWhileImmediateDone checks the zero-interaction case: a step
// function that is done on its first call keeps the token without any
// rescheduling.
func TestStepWhileImmediateDone(t *testing.T) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		calls := 0
		p.StepWhile(func() (int64, bool) {
			calls++
			return 0, true
		})
		if calls != 1 {
			t.Errorf("proc %d: step called %d times, want 1", p.ID, calls)
		}
	})
}

// TestProcPanicReachesRun: a panic in one proc's body propagates out of Run
// on the caller's goroutine with its original value, and Run first unwinds
// every other proc — blocked and parked in a step function alike — running
// their deferred calls, so no coroutine outlives it. A body that swallows
// the unwinding must not resume scheduling: proc 0's finish would report
// proc 3 as deadlocked in place of the original panic.
func TestProcPanicReachesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(4)
	var unwound atomic.Int32
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run(func(p *Proc) {
			defer unwound.Add(1)
			switch p.ID {
			case 0:
				defer func() { _ = recover() }()
				p.Block() // never woken
			case 1:
				p.StepWhile(func() (int64, bool) { return Park, false })
			case 2:
				p.Advance(10)
				panic("proc 2 failed")
			default:
				p.Block()
			}
		})
		return nil
	}()
	if got != "proc 2 failed" {
		t.Fatalf("Run panicked with %v, want the proc's own value", got)
	}
	if n := unwound.Load(); n != 4 {
		t.Errorf("%d procs ran their deferred calls, want 4", n)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
}
