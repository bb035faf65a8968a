// Package vtime provides a deterministic virtual-time execution engine.
//
// Each virtual processor runs as a goroutine, but execution is serialized by
// a token: at any moment exactly one proc executes "user" code, and the token
// is always handed to the ready proc with the smallest virtual clock (ties
// broken by proc ID). This makes every simulation run fully deterministic
// regardless of the Go scheduler, while letting runtime and workload code be
// written in ordinary direct style. All modelled work is charged through
// Advance, whose call sites double as the safepoints of the simulated
// runtime.
//
// # Engine internals: single-writer discipline, horizon, ready-heap, steps
//
// The engine needs no mutex. All scheduler state (clocks, states, the ready
// heap, the horizon) is mutated only by the current token holder, and the
// token moves between goroutines over a channel, whose send/receive pair
// publishes every preceding write to the next holder. Three performance
// ideas are layered on that discipline:
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
//     horizon — no lock, no scan, no channel operation.
//
//   - Ready min-heap. Ready procs other than the token holder sit in a
//     binary min-heap keyed on (clock, ID), so every reschedule, block, and
//     finish is O(log n) instead of an O(n) linear scan.
//
//   - Inline steps. A proc whose next actions are a pure observe-and-charge
//     loop (idle polling, steal probing, spin waits) can suspend into a step
//     function via StepWhile. While parked, its turns are executed inline by
//     whichever goroutine holds the token: scheduling the proc calls the
//     step function instead of performing a goroutine handoff. In idle-heavy
//     phases this collapses the token ping-pong between pollers into plain
//     function calls — the dominant wall-clock cost of the naive engine.
//
// The schedule produced is bit-identical to the naive "scan all procs each
// Advance" engine: keys are unique (IDs break clock ties), the heap yields
// exactly the same minimum the scan would, the fast path only skips
// reschedules that would have kept the holder running anyway, and a step
// function runs exactly when (in virtual time) its proc would have been
// scheduled — only on a different stack.
package vtime

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
	token chan struct{}

	// step, when non-nil, is the parked proc's inline scheduler: the token
	// holder calls it in place of a goroutine handoff (see StepWhile).
	step func() (int64, bool)
}

// Engine coordinates a fixed set of procs.
type Engine struct {
	procs []*Proc
	wg    sync.WaitGroup
	// started is set once Run has handed out the first token.
	started atomic.Bool

	// ready is the binary min-heap of Ready procs, keyed on (clock, ID),
	// excluding the current token holder. Only the token holder touches
	// it; the token handoff channel publishes the writes.
	ready []*Proc

	// horizonClock/horizonID cache ready[0]'s key (the next-smallest
	// ready key after the holder). While the holder's (clock, ID) stays
	// lexicographically below it, Advance never reschedules. An empty
	// heap is represented by horizonClock == math.MaxInt64, which keeps
	// the fast path unconditionally true.
	horizonClock int64
	horizonID    int
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
			token: make(chan struct{}, 1),
		})
	}
	return e
}

// NumProcs returns the number of procs.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Proc returns the i'th proc.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// Run executes body on every proc and returns when all procs are Done.
// It may be called once per engine.
func (e *Engine) Run(body func(p *Proc)) {
	if e.started.Swap(true) {
		panic("vtime: Run called twice")
	}
	for _, p := range e.procs {
		e.wg.Add(1)
		go func(p *Proc) {
			defer e.wg.Done()
			p.await() // wait to be scheduled for the first time
			body(p)
			p.finish()
		}(p)
	}
	// Seed the ready heap with procs 1..n-1 (all clocks zero, so ID order
	// is already a valid heap) and hand the token to the initial minimum,
	// proc 0.
	e.ready = append(e.ready[:0], e.procs[1:]...)
	e.refreshHorizon()
	e.procs[0].grant()
	e.wg.Wait()
}

// grant hands the token to p (who must be the scheduling decision's next
// proc), waking its goroutine. The channel send publishes all engine state
// written by the granter. Pairs with await.
func (p *Proc) grant() {
	p.token <- struct{}{}
}

// await takes the token, parking until granted.
func (p *Proc) await() {
	<-p.token
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
	h := e.ready
	h = append(h, p)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !procLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.ready = h
}

// heapFixRoot restores the heap property after the root's key grew.
func (e *Engine) heapFixRoot() {
	h := e.ready
	n := len(h)
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		min := i
		for c := first; c < last; c++ {
			if procLess(h[c], h[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// heapPopRoot removes the minimum ready proc.
func (e *Engine) heapPopRoot() {
	h := e.ready
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

// dispatch drives the simulation forward until a goroutine handoff is due:
// while the minimum ready proc is parked in a step function, its turns are
// executed inline on the caller's stack; the first minimum that needs its
// own goroutine (no step function, or its step function just reported done)
// is popped and returned. Returns nil when no proc is ready — a deadlock
// (panic) if anything is still blocked, or normal completion if not.
//
// The caller must have already accounted for itself (pushed itself into the
// ready heap, or marked itself Blocked/Done).
func (e *Engine) dispatch() *Proc {
	if len(e.ready) == 0 {
		for _, q := range e.procs {
			if q.state == Blocked {
				panic(fmt.Sprintf("vtime: deadlock — proc %d blocked with no ready proc", q.ID))
			}
		}
		// All procs are Done; nothing to schedule.
		return nil
	}
	for {
		next := e.ready[0]
		if next.step == nil {
			e.heapPopRoot()
			e.refreshHorizon()
			return next
		}
		// Inline turn: next is the minimum, so this is exactly the
		// virtual instant its goroutine would have been scheduled.
		d, done := next.step()
		if done {
			next.step = nil
			e.heapPopRoot()
			e.refreshHorizon()
			return next
		}
		if d < 0 {
			panic("vtime: negative advance")
		}
		next.clock += d
		e.heapFixRoot()
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
		// Common case: the new minimum runs on its own goroutine. Swap
		// places with it directly — it takes the token, we take its
		// heap slot — saving a separate push + pop. (Heap extraction
		// order depends only on the key set, never on layout, so this
		// is schedule-identical to push-then-dispatch.)
		e.ready[0] = p
		e.heapFixRoot()
		e.refreshHorizon()
		next.grant()
		p.await()
		return
	}
	// The minimum is parked in a step function: rejoin the ready set and
	// dispatch; if every intervening proc runs inline, the token never
	// leaves this goroutine.
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
// proc's goroutine — and returns the duration to charge before its next
// turn, or done to resume normal execution. StepWhile returns on the proc's
// own goroutine, holding the token, at the exact virtual instant of the
// final fn call; no virtual time passes between that call and the return.
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
// but turns that interleave with other parked pollers cost a function call
// instead of a goroutine handoff. fn must confine itself to observing and
// mutating simulation state and must not call engine scheduling primitives
// (Advance, Block, Wake, Barrier.Arrive) — it runs astride them.
func (p *Proc) StepWhile(fn func() (d int64, done bool)) {
	e := p.eng
	for {
		d, done := fn()
		if done {
			return
		}
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
		next := e.dispatch()
		if next == p {
			// dispatch ran fn inline until it reported done (and
			// cleared p.step); the token never left this goroutine.
			return
		}
		next.grant()
		p.await()
		// The token only comes back after some holder observed fn
		// report done and cleared p.step.
		return
	}
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

// finish marks the proc Done and passes the token on.
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
