package core

import (
	"math"

	"repro/internal/vtime"
)

// Event-driven idle vprocs.
//
// An idle vproc's steal sweep (see sweep) is periodic. Measured from a
// loop-top instant base, with S = StealAttemptNs, P = PollNs and n vprocs,
// one period of (n-1)·S + P holds a loop top at offset 0 and the probe of
// the victim k places after it at offset k·S; the last probe (offset
// (n-1)·S) is the sweep end, where a failed sweep is counted and
// quiescence checked. What each turn observes is a small set of state:
// victims' stealability, the loop-top conditions (join completion, GC
// signals, own queue, pending faults, a zeroed limit), the outstanding-task
// count and the vproc's own timers.
//
// So a turn that observed nothing need not be followed by the next one. At
// the end of every idle turn the machine computes the first later turn that
// could observe something under the current state — the next probe of a
// stealable victim, the next loop top if a loop-top condition holds, the
// next sweep end if that sweep would end the machine, its earliest timer
// deadline — and skips straight to it (idleSkip). If no such turn exists
// the vproc parks: it leaves the engine's ready heap altogether
// (vtime.Park). The turns it skips observe nothing by construction, so
// the only accounting they need is FailedSteals, charged arithmetically
// when the vproc resumes (idleResume).
//
// Every writer of observed state then wakes the parked vprocs whose skipped
// turns would have seen the change, at the exact instant the first of those
// turns falls after the writer's key (clock, ID) — the engine's serial
// order, in which that turn is the first to observe the write:
//
//   - a victim becoming stealable (a queue push, or heapBusy clearing over
//     queued tasks) wakes its earliest parked observer at that observer's
//     first probe of it (designate); if that observer leaves the idle
//     machine first, the victim is designated again (idleExit);
//   - a push onto a parked vproc's own queue, the completion of the task it
//     joins, and a global-collection request wake it at its next loop top
//     (the termination request needs no wake: it is only raised during a
//     concurrent mark, when nothing is parked);
//   - the outstanding count reaching zero wakes every parked non-joiner at
//     its next sweep end;
//   - a cancelled timer wakes its owner at its next turn, which recomputes
//     the skip under the new deadline.
//
// Waking early is harmless — the woken turn observes nothing and skips on —
// but a missed wake changes the schedule, which the committed baselines and
// TestIdleParkingScenarios catch. Parking is off during a concurrent mark (the mark-attention
// condition depends on scan state that changes at too many sites to wake
// from) and on a single vproc, and with non-positive S or P, where the
// sweep has no period to skip along.

// idleState is a vproc's position in its periodic idle sweep while parked.
type idleState struct {
	// parked is set while the vproc skips turns: the turns from next up to
	// its engine key are not executed.
	parked bool
	// join and oneShot are the running sweep's parameters (see sweep).
	join    *Task
	oneShot bool
	// base is a loop-top instant of the current schedule and next the
	// first turn not executed.
	base int64
	next int64
}

// idleInit sets up the runtime-wide constants of the idle schedule.
func (rt *Runtime) idleInit() {
	n := int64(len(rt.VProcs))
	s, p := rt.Cfg.StealAttemptNs, rt.Cfg.PollNs
	rt.idleParking = n >= 2 && s > 0 && p > 0
	rt.idlePeriod = (n-1)*s + p
	if rt.idleParking {
		// Only parked sweeps read stealability; without them the
		// queues need not report their size changes.
		for _, vp := range rt.VProcs {
			vp.queue.owner = vp
		}
	}
}

// idleOffset is the period offset of vp's probe of victim x.
func (rt *Runtime) idleOffset(vp, x *VProc) int64 {
	n := len(rt.VProcs)
	return int64((x.ID-vp.ID+n)%n) * rt.Cfg.StealAttemptNs
}

// sweepEndOffset is the period offset of the last probe of a sweep.
func (rt *Runtime) sweepEndOffset() int64 {
	return int64(len(rt.VProcs)-1) * rt.Cfg.StealAttemptNs
}

// first returns the first turn of the schedule at or after lo at period
// offset off, or at any offset when off < 0.
func (st *idleState) first(rt *Runtime, lo, off int64) int64 {
	pd := rt.idlePeriod
	if off >= 0 {
		m := ceilDiv(lo-st.base-off, pd)
		if m < 0 {
			m = 0
		}
		return st.base + m*pd + off
	}
	r := (lo - st.base) % pd
	start := lo - r
	if s := rt.Cfg.StealAttemptNs; r <= rt.sweepEndOffset() {
		return start + ceilDiv(r, s)*s
	}
	return start + pd
}

// ceilDiv is ⌈a/b⌉ for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}

// idleSkip runs at the end of an idle turn that charged d, unclamped by a
// timer, and left the machine at probe k (k < 0: a loop top). It returns
// the charge up to the first later turn that could observe anything, or
// vtime.Park when none can, and records the skipped schedule.
func (vp *VProc) idleSkip(d int64, k int) int64 {
	rt := vp.rt
	st := &vp.idle
	if rt.global.marking {
		return d
	}
	next := vp.Now() + d
	base := next
	if k > 0 {
		base -= int64(k) * rt.Cfg.StealAttemptNs
	}
	st.base = base
	until := int64(math.MaxInt64)
	at := func(off int64) {
		if t := st.first(rt, next, off); t < until {
			until = t
		}
	}
	if (st.join != nil && st.join.done) || vp.Local.LimitZeroed() ||
		rt.global.pending || rt.global.termPending ||
		len(vp.pendingFaults) != 0 || vp.queue.size() > 0 {
		at(0)
	}
	if st.oneShot || (st.join == nil && rt.outstanding == 0) {
		at(rt.sweepEndOffset())
	}
	if rt.nStealable > 0 {
		for _, x := range rt.VProcs {
			if x.stealable && x != vp {
				at(rt.idleOffset(vp, x))
			}
		}
	}
	if dl, ok := vp.timers.NextDeadline(); ok && dl < until {
		until = dl
	}
	if until == next {
		return d
	}
	st.parked = true
	st.next = next
	rt.nParked++
	if until == math.MaxInt64 {
		return vtime.Park
	}
	return until - vp.Now()
}

// idleResume runs when a parked vproc's step is called again: it charges
// the failed sweeps of the skipped turns and returns the machine's k for
// the current instant — a probe index, or -1 for a loop top (which is also
// what a turn off the schedule is: a charge clamped to a timer deadline).
func (vp *VProc) idleResume() int {
	rt := vp.rt
	st := &vp.idle
	st.parked = false
	rt.nParked--
	t := vp.Now()
	pd := rt.idlePeriod
	end := st.base + rt.sweepEndOffset()
	if skipped := ceilDiv(t-end, pd) - max(ceilDiv(st.next-end, pd), 0); skipped > 0 {
		vp.Stats.FailedSteals += skipped
	}
	r := (t - st.base) % pd
	s := rt.Cfg.StealAttemptNs
	if r == 0 || r%s != 0 || r > rt.sweepEndOffset() {
		return -1
	}
	return int(r / s)
}

// idleExit runs on the vproc's own coroutine when it leaves the idle
// machine (at the instant of its final turn): victims it was designated to
// observe, and is not about to steal from, pass to their next observer.
func (vp *VProc) idleExit(victim *VProc) {
	rt := vp.rt
	if rt.nParked == 0 || rt.nStealable == 0 {
		return
	}
	for _, x := range rt.VProcs {
		if x.observer == vp && x != victim && x.stealable {
			rt.designate(x)
		}
	}
}

// wakeIdle moves parked vp's next turn up to its first turn at period
// offset off (any turn if off < 0) after the running vproc's key.
func (rt *Runtime) wakeIdle(vp *VProc, off int64) {
	w := rt.Eng.Running()
	w.WakeAt(vp.proc, vp.idle.after(rt, w, vp.ID, off))
}

// after returns the first turn at offset off whose key (instant, id) comes
// after writer w's key, and not before the first unexecuted turn.
func (st *idleState) after(rt *Runtime, w *vtime.Proc, id int, off int64) int64 {
	lo := w.Now()
	if id < w.ID {
		lo++
	}
	if lo < st.next {
		lo = st.next
	}
	return st.first(rt, lo, off)
}

// wakeAllIdle wakes every parked vproc at its next loop top (a global
// signal every loop top observes).
func (rt *Runtime) wakeAllIdle() {
	if rt.nParked == 0 {
		return
	}
	for _, vp := range rt.VProcs {
		if vp.idle.parked {
			rt.wakeIdle(vp, 0)
		}
	}
}

// releaseOutstanding retires one outstanding task; reaching zero wakes every
// parked non-joiner at its next sweep end, where it quiesces.
func (rt *Runtime) releaseOutstanding() {
	rt.outstanding--
	if rt.outstanding != 0 || rt.nParked == 0 {
		return
	}
	for _, vp := range rt.VProcs {
		if vp.idle.parked && vp.idle.join == nil {
			rt.wakeIdle(vp, rt.sweepEndOffset())
		}
	}
}

// taskDone marks t complete and wakes its joiner if it is parked.
func (rt *Runtime) taskDone(t *Task) {
	t.done = true
	if j := t.joiner; j != nil && j.idle.parked && j.idle.join == t {
		rt.wakeIdle(j, 0)
	}
}

// syncStealable recomputes whether thieves can steal from vp, keeping
// rt.nStealable exact, and reports whether vp just turned stealable (the
// caller then wakes an observer).
func (vp *VProc) syncStealable() bool {
	if vp.queue.owner == nil {
		return false // parking is off: nothing reads stealability
	}
	s := !vp.heapBusy && vp.queue.size() > 0
	if s == vp.stealable {
		return false
	}
	vp.stealable = s
	if !s {
		vp.rt.nStealable--
		vp.observer = nil
		return false
	}
	vp.rt.nStealable++
	return true
}

// setHeapBusy sets the thief/collector lock on vp's heap; the clear can
// make queued tasks stealable again.
func (vp *VProc) setHeapBusy(b bool) {
	vp.heapBusy = b
	if vp.syncStealable() {
		vp.rt.designate(vp)
	}
}

// queuePushed runs after a push onto vp's queue: a parked owner observes
// its queue at its next loop top, and thieves may now steal.
func (vp *VProc) queuePushed() {
	if vp.idle.parked {
		vp.rt.wakeIdle(vp, 0)
	}
	if vp.syncStealable() {
		vp.rt.designate(vp)
	}
}

// designate wakes the parked vproc whose next probe of stealable victim x
// comes first, at that probe, and records it as x's observer.
func (rt *Runtime) designate(x *VProc) {
	x.observer = nil
	if rt.nParked == 0 {
		return
	}
	w := rt.Eng.Running()
	var best *VProc
	var bestT int64
	for _, o := range rt.VProcs {
		if !o.idle.parked || o == x {
			continue
		}
		t := o.idle.after(rt, w, o.ID, rt.idleOffset(o, x))
		if best == nil || t < bestT || (t == bestT && o.ID < best.ID) {
			best, bestT = o, t
		}
	}
	if best != nil {
		x.observer = best
		w.WakeAt(best.proc, bestT)
	}
}
