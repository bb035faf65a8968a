//go:build go1.23

// Package vtime provides a deterministic virtual-time execution engine.
//
// Each virtual processor runs as a coroutine (iter.Pull), but execution is
// serialized by a token: at any moment exactly one proc executes "user"
// code, and the token is always handed to the ready proc with the smallest
// virtual clock (ties broken by proc ID). This makes every simulation run
// fully deterministic regardless of the Go scheduler, while letting runtime
// and workload code be written in ordinary direct style. All modelled work
// is charged through Advance, whose call sites double as the safepoints of
// the simulated runtime.
//
// # Engine internals: single-writer discipline, horizon, ready-heap, steps
//
// The engine needs no mutex. All scheduler state (clocks, states, the ready
// heap, the horizon) is mutated only by the current token holder, and every
// proc is a coroutine driven by the goroutine that called Run: a proc
// handing the token on records the scheduling decision's next proc and
// yields, and Run's dispatcher loop resumes that proc's coroutine. A
// handoff is thus a pair of direct coroutine switches, which order every
// write before the next holder's reads, with no channel, no wakeup and no
// trip through the Go scheduler. Four performance ideas are layered on
// that discipline:
//
//   - Horizon fast path. Whenever the token changes hands (and whenever a
//     proc joins the ready set), the engine caches the smallest ready key
//     (clock, ID) among the procs NOT holding the token — the horizon. The
//     holder provably remains the global minimum until its own clock crosses
//     that key, because no other proc's clock can change while it runs
//     (procs already in the ready heap are suspended; procs can only enter
//     the ready set through the holder's own Wake/barrier-release calls,
//     which refresh the horizon). Advance therefore degenerates to a plain
//     local add plus one comparison while the new clock stays below the
//     horizon — no scan and no coroutine switch.
//
//   - Ready min-heap. Ready procs other than the token holder sit in a
//     binary min-heap keyed on (clock, ID), so every reschedule, block, and
//     finish is O(log n) instead of an O(n) linear scan.
//
//   - Inline steps. A proc whose next actions are a pure observe-and-charge
//     loop (idle polling, steal probing, spin waits) can suspend into a step
//     function via StepWhile. While parked, its turns are executed inline by
//     whichever proc holds the token: scheduling the proc calls the step
//     function instead of performing a handoff. In idle-heavy phases this
//     collapses the token ping-pong between pollers into plain function
//     calls — the dominant wall-clock cost of the naive engine.
//
//   - Parked procs. A step function whose next turns cannot observe
//     anything new need not take them: it may return a longer charge that
//     skips straight to the first turn that could, or Park to leave the
//     ready heap altogether. Whoever then writes state the skipped turns
//     observe calls WakeAt with the instant of the first of those turns
//     that falls after the writer's own key (clock, ID) — a decrease-key
//     for a proc still in the heap, a re-insertion for a parked one. The
//     rule is exact because the engine runs turns in key order: a turn
//     keyed after the writer's key is precisely a turn that would have run
//     after the write and seen it, and one keyed before it saw the old
//     state, which is why it was skippable. Waking too early costs a turn
//     that observes nothing; only a missing wake changes the schedule. An
//     empty heap with a parked proc left is a deadlock, like a Blocked one.
//
// The schedule produced is bit-identical to the naive "scan all procs each
// Advance" engine: keys are unique (IDs break clock ties), the heap yields
// exactly the same minimum the scan would, the fast path only skips
// reschedules that would have kept the holder running anyway, a step
// function runs exactly when (in virtual time) its proc would have been
// scheduled — only on a different stack — and a parked proc is woken at
// the first turn whose outcome the skipped polling could have changed.
package vtime

import (
	"errors"
	"fmt"
	"iter"
	"math"
)

// State is the scheduling state of a Proc.
type State int

const (
	// Ready procs compete for the execution token.
	Ready State = iota
	// Blocked procs wait to be woken by a running proc.
	Blocked
	// Done procs have finished their body.
	Done
)

// Proc is one serialized virtual processor.
type Proc struct {
	ID    int
	eng   *Engine
	clock int64
	state State

	// resume runs the proc's coroutine until it next hands the token on;
	// stop unwinds a suspended one (see Engine.Run); yield, called from
	// inside the coroutine, suspends it back to the dispatcher.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// step, when non-nil, is the suspended proc's inline scheduler: the
	// token holder calls it in place of a handoff (see StepWhile).
	step func() (int64, bool)

	// hidx is the proc's index in the ready heap, or -1 when it is not in
	// it; it makes WakeAt's decrease-key O(log n).
	hidx int
	// parked is set while the proc's step function has returned Park: it
	// is out of the ready heap until another proc calls WakeAt on it.
	parked bool
}

// Park is the step-function result that takes the proc out of the ready
// set entirely: it is scheduled again only when another proc calls WakeAt
// on it (see StepWhile).
const Park int64 = -1

// Stats counts the engine's host-side work. Every count is a pure function
// of the simulated schedule, so two runs of the same simulation report the
// same values and a host-work regression shows up bit-exactly.
type Stats struct {
	// InlineTurns counts step-function calls made by dispatch on behalf
	// of a suspended proc (turns that cost a call, not a handoff).
	InlineTurns int64
	// Handoffs counts transfers of the execution token from one proc's
	// coroutine to another's: one per dispatcher resume.
	Handoffs int64
	// Parks counts step results of Park; Wakes counts WakeAt calls that
	// moved a proc's next turn earlier (re-inserting a parked proc or
	// decreasing a ready proc's key).
	Parks int64
	Wakes int64
}

// Engine coordinates a fixed set of procs.
type Engine struct {
	procs []*Proc
	// started is set once Run is called; stopping once Run is unwinding
	// the procs' coroutines on its way out.
	started, stopping bool
	// next is the proc the dispatcher resumes once the running coroutine
	// yields or returns: the scheduling decision of the last handoff, or
	// nil when every proc is Done.
	next *Proc

	// ready is the binary min-heap of Ready procs, keyed on (clock, ID),
	// excluding the current token holder. Only the token holder touches
	// it.
	ready []*Proc

	// horizonClock/horizonID cache ready[0]'s key (the next-smallest
	// ready key after the holder). While the holder's (clock, ID) stays
	// lexicographically below it, Advance never reschedules. An empty
	// heap is represented by horizonClock == math.MaxInt64, which keeps
	// the fast path unconditionally true.
	horizonClock int64
	horizonID    int

	// running is the proc whose code is executing: the coroutine holding
	// the token, or the proc whose step function dispatch is calling.
	running *Proc

	stats Stats
}

// NewEngine creates an engine with n procs, all Ready at clock zero.
func NewEngine(n int) *Engine {
	if n <= 0 {
		panic("vtime: engine needs at least one proc")
	}
	e := &Engine{}
	for i := 0; i < n; i++ {
		e.procs = append(e.procs, &Proc{
			ID:    i,
			eng:   e,
			state: Ready,
			hidx:  -1,
		})
	}
	return e
}

// NumProcs returns the number of procs.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Proc returns the i'th proc.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// errStopped unwinds a suspended proc whose coroutine Run is stopping.
var errStopped = errors.New("vtime: proc stopped")

// Run executes body on every proc and returns when all procs are Done.
// It may be called once per engine. Each proc's body runs as a coroutine
// driven by the calling goroutine, so a panic in any body (a deadlock
// report included) propagates out of Run with its original value, after
// the other procs' coroutines have been unwound.
func (e *Engine) Run(body func(p *Proc)) {
	if e.started {
		panic("vtime: Run called twice")
	}
	e.started = true
	for _, p := range e.procs {
		p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			body(p)
			if !e.stopping {
				p.finish()
			}
		})
	}
	defer e.stopAll()
	// Seed the ready heap with procs 1..n-1 (all clocks zero, so ID order
	// is already a valid heap) and hand the token to the initial minimum,
	// proc 0.
	e.ready = append(e.ready[:0], e.procs[1:]...)
	for i, p := range e.ready {
		p.hidx = i
	}
	e.refreshHorizon()
	e.procs[0].grant()
	// The dispatcher: every handoff returns here, with the running proc
	// suspended in await (or finished) and next already chosen.
	for e.next != nil {
		p := e.next
		e.next = nil
		e.stats.Handoffs++
		p.resume()
	}
}

// stopAll unwinds every proc coroutine still suspended, so none outlives
// Run: its pending await panics with errStopped, which is recovered here.
// After a normal Run every coroutine has returned and this is a no-op.
func (e *Engine) stopAll() {
	e.stopping = true
	for _, p := range e.procs {
		func() {
			defer func() {
				if r := recover(); r != nil && r != errStopped {
					panic(r)
				}
			}()
			p.stop()
		}()
	}
}

// grant hands the token to p, who must be the scheduling decision's next
// proc: the dispatcher resumes it once the granter yields (await) or
// returns (finish).
func (p *Proc) grant() {
	p.eng.running = p
	p.eng.next = p
}

// Running returns the proc whose code is executing — the token holder, or
// the proc whose step function is being run inline. Its key (clock, ID) is
// the instant at which any state it writes becomes observable. Only
// meaningful while Run is executing procs, and only to the running proc.
func (e *Engine) Running() *Proc { return e.running }

// Stats returns the engine's work counters. Like MaxClock it must not be
// called while Run is executing procs.
func (e *Engine) Stats() Stats { return e.stats }

// await suspends the proc's coroutine until the dispatcher resumes it with
// the token. A false yield means Run is stopping the coroutine instead; it
// unwinds with errStopped.
func (p *Proc) await() {
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// --- Ready-heap primitives (caller is the token holder) -------------------

// procLess orders procs by (clock, ID); keys are unique.
func procLess(a, b *Proc) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.ID < b.ID)
}

// The ready heap is 4-ary: reschedules are dominated by sift-downs
// (replace-root on every handoff), and a wider node halves the depth.
// Extraction order is unaffected — keys are unique, so any d-ary heap pops
// the same sequence.
const heapArity = 4

// heapPush inserts p into the ready heap.
func (e *Engine) heapPush(p *Proc) {
	e.ready = append(e.ready, p)
	e.heapUp(len(e.ready) - 1)
}

// heapUp restores the heap property after the key at index i shrank.
func (e *Engine) heapUp(i int) {
	h := e.ready
	p := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		q := h[parent]
		if !procLess(p, q) {
			break
		}
		h[i] = q
		q.hidx = i
		i = parent
	}
	h[i] = p
	p.hidx = i
}

// heapFixRoot restores the heap property after the root's key grew.
func (e *Engine) heapFixRoot() {
	h := e.ready
	n := len(h)
	if n == 0 {
		return
	}
	p := h[0]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if procLess(h[c], h[min]) {
				min = c
			}
		}
		if !procLess(h[min], p) {
			break
		}
		h[i] = h[min]
		h[i].hidx = i
		i = min
	}
	h[i] = p
	p.hidx = i
}

// heapPopRoot removes the minimum ready proc.
func (e *Engine) heapPopRoot() {
	h := e.ready
	h[0].hidx = -1
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.ready = h[:n]
	e.heapFixRoot()
}

// refreshHorizon re-caches the ready heap's minimum key.
func (e *Engine) refreshHorizon() {
	if len(e.ready) == 0 {
		e.horizonClock = math.MaxInt64
		e.horizonID = 0
		return
	}
	e.horizonClock = e.ready[0].clock
	e.horizonID = e.ready[0].ID
}

// dispatch drives the simulation forward until a handoff is due:
// while the minimum ready proc is suspended in a step function, its turns
// are executed inline on the caller's stack (a turn returning Park takes the
// proc out of the heap); the first minimum that needs its own coroutine (no
// step function, or its step function just reported done) is popped and
// returned. Returns nil when no proc is ready and every proc is Done; a
// proc still Blocked or parked with nothing ready to wake it is a deadlock
// (panic).
//
// The caller must have already accounted for itself (pushed itself into the
// ready heap, parked, or marked itself Blocked/Done).
func (e *Engine) dispatch() *Proc {
	for {
		if len(e.ready) == 0 {
			e.checkDeadlock()
			return nil
		}
		next := e.ready[0]
		e.running = next
		if next.step == nil {
			e.heapPopRoot()
			e.refreshHorizon()
			return next
		}
		// Inline turn: next is the minimum, so this is exactly the
		// virtual instant its coroutine would have been scheduled.
		e.stats.InlineTurns++
		d, done := next.step()
		if done {
			next.step = nil
			e.heapPopRoot()
			e.refreshHorizon()
			return next
		}
		if d == Park {
			e.heapPopRoot()
			e.park(next)
			continue
		}
		if d < 0 {
			panic("vtime: negative advance")
		}
		next.clock += d
		e.heapFixRoot()
	}
}

// park records p, whose step function just returned Park, as out of the
// ready set.
func (e *Engine) park(p *Proc) {
	p.parked = true
	e.stats.Parks++
}

// checkDeadlock panics if the empty ready set leaves any proc waiting: a
// Blocked proc can only be released, and a parked proc only woken, by a
// running one. (A Done proc left marked parked recovered from this very
// panic; it waits for nothing.)
func (e *Engine) checkDeadlock() {
	for _, q := range e.procs {
		if q.state == Blocked {
			panic(fmt.Sprintf("vtime: deadlock — proc %d blocked with no ready proc", q.ID))
		}
		if q.parked && q.state != Done {
			panic(fmt.Sprintf("vtime: deadlock — proc %d parked with no ready proc", q.ID))
		}
	}
}

// handoffFrom passes the token on after p stopped running (Blocked or Done).
func (e *Engine) handoffFrom(p *Proc) {
	if next := e.dispatch(); next != nil {
		next.grant()
	}
}

// Now returns the proc's virtual clock in nanoseconds.
func (p *Proc) Now() int64 { return p.clock }

// Advance charges d nanoseconds of virtual time and reschedules: if another
// ready proc now has a smaller clock, control transfers to it before Advance
// returns. d must be non-negative.
//
// Fast path: while the advanced clock stays below the horizon (the smallest
// other ready key), the holder is still the global minimum and Advance is a
// plain local add — no synchronization of any kind.
func (p *Proc) Advance(d int64) {
	if d < 0 {
		panic("vtime: negative advance")
	}
	e := p.eng
	c := p.clock + d
	if c < e.horizonClock || (c == e.horizonClock && p.ID < e.horizonID) {
		p.clock = c
		return
	}
	// Slow path: the clock crossed the horizon, so the heap minimum now
	// precedes us.
	p.clock = c
	next := e.ready[0]
	if next.step == nil {
		// Common case: the new minimum runs on its own coroutine. Swap
		// places with it directly — it takes the token, we take its
		// heap slot — saving a separate push + pop. (Heap extraction
		// order depends only on the key set, never on layout, so this
		// is schedule-identical to push-then-dispatch.)
		next.hidx = -1
		e.ready[0] = p
		e.heapFixRoot()
		e.refreshHorizon()
		next.grant()
		p.await()
		return
	}
	// The minimum is parked in a step function: rejoin the ready set and
	// dispatch; if every intervening proc runs inline, the token never
	// leaves this coroutine.
	e.heapPush(p)
	next = e.dispatch()
	if next == p {
		return
	}
	next.grant()
	p.await()
}

// StepWhile suspends the proc into an inline scheduling loop: fn is invoked
// at every virtual instant the proc is scheduled — possibly on another
// proc's stack — and returns the duration to charge before its next turn,
// or done to resume normal execution. StepWhile returns on the proc's own
// stack, holding the token, at the exact virtual instant of the final fn
// call; no virtual time passes between that call and the return.
//
// StepWhile(fn) is semantically identical to
//
//	for {
//		d, done := fn()
//		if done {
//			return
//		}
//		p.Advance(d)
//	}
//
// but turns that interleave with other suspended pollers cost a function
// call instead of a handoff. fn must confine itself to observing
// and mutating simulation state and must not call engine scheduling
// primitives (Advance, Block, Wake, Barrier.Arrive) — it runs astride them.
//
// fn may also return d == Park (with done false): the proc leaves the ready
// set and fn is not called again until another proc calls WakeAt on it,
// which sets the instant of the next call. A fn that parks is responsible
// for being woken at the first instant it would observe something new;
// with nothing left running to wake it, the engine reports a deadlock.
func (p *Proc) StepWhile(fn func() (d int64, done bool)) {
	e := p.eng
	for {
		d, done := fn()
		if done {
			return
		}
		if d == Park {
			p.step = fn
			e.park(p)
		} else {
			if d < 0 {
				panic("vtime: negative advance")
			}
			c := p.clock + d
			if c < e.horizonClock || (c == e.horizonClock && p.ID < e.horizonID) {
				p.clock = c
				continue
			}
			p.clock = c
			p.step = fn
			e.heapPush(p)
		}
		next := e.dispatch()
		if next == p {
			// dispatch ran fn inline until it reported done (and
			// cleared p.step); the token never left this coroutine.
			return
		}
		next.grant()
		p.await()
		// The token only comes back after some holder observed fn
		// report done and cleared p.step.
		return
	}
}

// WakeAt makes q's step function (see StepWhile) run no later than virtual
// instant t: a parked q re-enters the ready set with its clock set to t,
// and a ready q whose next turn is later than t has that turn moved up to
// t (decrease-key). A q already due at or before t is unaffected. p must
// hold the token, and (t, q.ID) must come strictly after p's own key, so
// the woken turn lies in the simulation's future.
func (p *Proc) WakeAt(q *Proc, t int64) {
	if q.step == nil {
		panic(fmt.Sprintf("vtime: proc %d woke proc %d which is not in a step function", p.ID, q.ID))
	}
	if t < p.clock || (t == p.clock && q.ID <= p.ID) {
		panic(fmt.Sprintf("vtime: proc %d woke proc %d at (%d, %d), not after its own key (%d, %d)",
			p.ID, q.ID, t, q.ID, p.clock, p.ID))
	}
	e := p.eng
	switch {
	case q.parked:
		q.parked = false
		q.clock = t
		e.heapPush(q)
	case t < q.clock:
		q.clock = t
		e.heapUp(q.hidx)
	default:
		return
	}
	e.stats.Wakes++
	// q's key may now precede the horizon; refresh so p's fast path
	// cannot run past it.
	e.refreshHorizon()
}

// Block suspends the proc until another proc calls Wake on it. The proc's
// clock is advanced to at least the waker's clock. Block returns once the
// proc is both woken and scheduled.
func (p *Proc) Block() {
	p.state = Blocked
	p.eng.handoffFrom(p)
	p.await()
}

// Wake makes q ready again. It must be called by the running proc; q's clock
// is advanced to the waker's clock so virtual time never flows backwards
// across the wakeup edge. Waking a non-blocked proc panics.
func (p *Proc) Wake(q *Proc) {
	e := p.eng
	if q.state != Blocked {
		panic(fmt.Sprintf("vtime: proc %d woke proc %d which is not blocked", p.ID, q.ID))
	}
	if q.clock < p.clock {
		q.clock = p.clock
	}
	q.state = Ready
	e.heapPush(q)
	// q entered the ready set, which may lower the horizon; refresh so the
	// waker's fast path cannot run past q.
	e.refreshHorizon()
	// The waker keeps running; q will be scheduled by the min-clock rule
	// at the waker's next Advance/Block.
}

// finish marks the proc Done and passes the token on; the coroutine then
// returns to the dispatcher with next already set.
func (p *Proc) finish() {
	p.state = Done
	p.eng.handoffFrom(p)
}

// MaxClock returns the largest clock over all procs; after Run completes
// this is the makespan of the simulation. It must not be called while Run
// is executing procs (clocks are unsynchronized engine-internal state).
func (e *Engine) MaxClock() int64 {
	var mx int64
	for _, p := range e.procs {
		if p.clock > mx {
			mx = p.clock
		}
	}
	return mx
}
