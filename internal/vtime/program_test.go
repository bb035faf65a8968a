package vtime

import (
	"fmt"
	"testing"
)

// Property test for inline steps: random programs of
// Advance/StepWhile/Block/Wake/Barrier over 4–64 procs must produce
// identical clock traces, final clocks and final private state whether
// each wait loop parks via StepWhile or runs as the plain Advance loop
// StepWhile's doc says it equals. Spin loops of random lengths interleave
// inline turns with coroutine handoffs; poll loops observe shared flags
// written by coroutine-bound procs, so an inline turn scheduled at the
// wrong virtual instant would see a different flag value and diverge.
//
// Parked pollers skip their failed polls altogether: after each failed
// poll the step returns Park (or a charge several periods long, woken
// early by decrease-key), counts the skipped polls arithmetically when it
// runs again, and relies on the writer's WakeAt at the first poll instant
// after the write — the poll at which the plain loop observes it.

// progRng is a splitmix64 so the generated program is stable across Go
// versions.
type progRng uint64

func (r *progRng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *progRng) intn(n uint64) int64 { return int64(r.next() % n) }

type progTraceRec struct {
	id    int
	clock int64
	tag   int64
}

// parkPoll is the shared state of one parked-poller pair: the flag, and the
// poller's schedule while it skips polls (period pd, first unexecuted poll
// next).
type parkPoll struct {
	flag   bool
	parked bool
	pd     int64
	next   int64
}

// after is the poller's first poll instant whose key comes after writer
// w's key; the poller's ID is w's plus one, so ties go to the poller.
func (pp *parkPoll) after(w *Proc) int64 {
	lo := w.Now()
	if lo <= pp.next {
		return pp.next
	}
	return pp.next + (lo-pp.next+pp.pd-1)/pp.pd*pp.pd
}

type progResult struct {
	trace  []progTraceRec
	clocks []int64
	sums   []int64
	max    int64
}

// runProgram executes one random program. All trace appends happen on the
// proc's own stack, never inside a step function, so their order is
// exactly the engine's schedule.
func runProgram(seed uint64, useStep bool) progResult {
	setup := progRng(seed)
	n := int(4 + setup.next()%61) // 4..64
	phases := int(3 + setup.next()%4)

	e := NewEngine(n)
	bar := NewBarrier(n, 600)
	// flags[phase][pair]: set by the even proc of the pair, polled by the
	// odd proc. blockReady[phase][pair]: set by the even proc immediately
	// before it Blocks, polled by the odd proc before Wake.
	pairs := n / 2
	flags := make([][]bool, phases)
	blockReady := make([][]bool, phases)
	polls := make([][]parkPoll, phases)
	for ph := 0; ph < phases; ph++ {
		flags[ph] = make([]bool, pairs)
		blockReady[ph] = make([]bool, pairs)
		polls[ph] = make([]parkPoll, pairs)
	}

	res := progResult{clocks: make([]int64, n), sums: make([]int64, n)}
	trace := func(p *Proc, tag int64) {
		res.trace = append(res.trace, progTraceRec{p.ID, p.Now(), tag})
	}

	park := func(p *Proc, fn func() (int64, bool)) {
		if useStep {
			p.StepWhile(fn)
			return
		}
		for {
			d, done := fn()
			if done {
				return
			}
			p.Advance(d)
		}
	}

	e.Run(func(p *Proc) {
		rng := progRng(seed ^ uint64(p.ID+1)*0xA24BAED4963EE407)
		var sum int64
		for ph := 0; ph < phases; ph++ {
			// 1. Random plain advances.
			for i := int64(0); i < 1+rng.intn(3); i++ {
				p.Advance(1 + rng.intn(500))
			}
			trace(p, 1)

			// 2. A spin loop with private state: m turns of d.
			m := 1 + rng.intn(40)
			d := 1 + rng.intn(25)
			turns := int64(0)
			park(p, func() (int64, bool) {
				if turns >= m {
					return 0, true
				}
				turns++
				return d, false
			})
			sum += turns * d
			trace(p, turns)

			// 3. Pair rendezvous through a shared flag: the even proc
			// publishes, the odd proc polls it.
			if pair := p.ID / 2; pair < pairs {
				if p.ID%2 == 0 {
					p.Advance(1 + rng.intn(300))
					flags[ph][pair] = true
					p.Advance(1 + rng.intn(100))
				} else {
					pd := 1 + rng.intn(30)
					park(p, func() (int64, bool) {
						if flags[ph][pair] {
							return 0, true
						}
						return pd, false
					})
					trace(p, 3)
				}
			}

			// 4. On odd phases, the even proc blocks and its partner
			// wakes it: the flag is set in the same serial segment as
			// Block, so the poller can only observe it once the sleeper
			// is actually Blocked.
			if ph%2 == 1 {
				if pair := p.ID / 2; pair < pairs {
					if p.ID%2 == 0 {
						blockReady[ph][pair] = true
						p.Block()
					} else {
						wd := 1 + rng.intn(20)
						park(p, func() (int64, bool) {
							if blockReady[ph][pair] {
								return 0, true
							}
							return wd, false
						})
						p.Wake(e.Proc(p.ID - 1))
					}
				}
			}

			// 5. Parked poller: the odd proc polls a flag the even proc
			// publishes. Under steps it parks between polls — outright,
			// or bounded by a few periods — and the publisher wakes it.
			if pair := p.ID / 2; pair < pairs {
				pp := &polls[ph][pair]
				if p.ID%2 == 0 {
					p.Advance(1 + rng.intn(400))
					pp.flag = true
					if useStep && pp.parked {
						p.WakeAt(e.Proc(p.ID+1), pp.after(p))
					}
					p.Advance(1 + rng.intn(100))
				} else {
					pd := 1 + rng.intn(30)
					bound := rng.intn(4) // 0: park outright
					var failed int64
					if useStep {
						pp.pd = pd
						p.StepWhile(func() (int64, bool) {
							if pp.parked {
								failed += (p.Now() - pp.next) / pd
								pp.parked = false
							}
							if pp.flag {
								return 0, true
							}
							failed++
							pp.next = p.Now() + pd
							pp.parked = true
							if bound == 0 {
								return Park, false
							}
							return bound * pd, false
						})
					} else {
						for !pp.flag {
							failed++
							p.Advance(pd)
						}
					}
					sum += failed
					trace(p, 5)
				}
			}

			bar.Arrive(p)
			trace(p, 4)
		}
		res.clocks[p.ID] = p.Now()
		res.sums[p.ID] = sum
	})
	res.max = e.MaxClock()
	return res
}

func diffProgResults(t *testing.T, want, got progResult) {
	t.Helper()
	if len(want.trace) != len(got.trace) {
		t.Fatalf("trace length %d, want %d", len(got.trace), len(want.trace))
	}
	for i := range want.trace {
		if want.trace[i] != got.trace[i] {
			t.Fatalf("trace[%d] = %+v, want %+v", i, got.trace[i], want.trace[i])
		}
	}
	for i := range want.clocks {
		if want.clocks[i] != got.clocks[i] {
			t.Fatalf("final clock[%d] = %d, want %d", i, got.clocks[i], want.clocks[i])
		}
	}
	for i := range want.sums {
		if want.sums[i] != got.sums[i] {
			t.Fatalf("private sum[%d] = %d, want %d", i, got.sums[i], want.sums[i])
		}
	}
	if want.max != got.max {
		t.Fatalf("MaxClock = %d, want %d", got.max, want.max)
	}
}

// TestSpanSchedulerEquivalence is the fuzz property: for every seed, the
// program parked through StepWhile produces the same schedule as the same
// program written as plain Advance loops.
func TestSpanSchedulerEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			diffProgResults(t, runProgram(seed, false), runProgram(seed, true))
		})
	}
}
