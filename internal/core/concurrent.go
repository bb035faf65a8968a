package core

import (
	"fmt"
	"math"

	"repro/internal/heap"
	"repro/internal/numa"
)

// Mostly-concurrent global collection (Config.ConcurrentGlobal).
//
// The legacy protocol (global.go) stops the world for the entire collection:
// condemn, scan all roots and local heaps, drain every to-space chunk, then
// release — a pause that grows with the live global heap and dominates the
// p99.9 request tail. The concurrent protocol splits the same copying
// collection into two short stop-the-world windows with a mutator-interleaved
// mark between them:
//
//	snapshot window    all vprocs rendezvous; the leader condemns the active
//	                   chunks (from-space); every vproc scans its roots and
//	                   whole local heap (including the live nursery — no
//	                   minor/major runs first), evacuating from-space
//	                   referents into fresh gray to-space chunks. No chunk
//	                   draining happens here: the window ends as soon as the
//	                   roots are black.
//
//	concurrent mark    mutators run. Gray data (to-space words in
//	                   [Scan, Top)) is drained by allocation-paced mark
//	                   assists at safepoints and by idle vprocs. Tri-color
//	                   discipline for a copying collector: white = from-space
//	                   objects, gray = unscanned to-space words, black =
//	                   scanned to-space words. Fresh global allocation lands
//	                   gray (allocate-gray), so anything a mutator builds
//	                   during the mark is scanned before termination. A
//	                   Dijkstra-style insertion barrier (gcWriteBarrier)
//	                   shades values stored into global objects: the only
//	                   stores that could hide a white object behind a black
//	                   one are stores of from-space addresses, and the
//	                   barrier evacuates those on the spot, charged through
//	                   the NUMA cost model like any evacuation.
//
//	termination window once no gray data remains, the world stops again: a
//	                   second root scan picks up everything mutators stored
//	                   since the snapshot, global-root objects dirtied during
//	                   the mark are rescanned slot-by-slot (channel records
//	                   pop their head link without the barrier; the rescan
//	                   heals them and seeds their chains gray), the drain
//	                   runs to empty, promotion forwarding is repaired, and
//	                   the from-space is released.
//
// The pacer (updatePacer) sets the next cycle's trigger from the measured
// survival and the allocation observed during the mark, GOGC-style: the goal
// heap is survived*(1+GCPercent/100) and the trigger is backed off from the
// goal by twice the last mark's allocation so the cycle finishes around the
// goal instead of overshooting it.
//
// With ConcurrentGlobal off, none of this code runs: every hook is behind the
// marking/termPending flags, which stay false forever, so legacy schedules
// are bit-identical.

// gcAssistMinWords is the floor on a nonzero mark-assist budget: paying a
// few words of debt at a time would charge the fixed assist overheads per
// visit without retiring gray data.
const gcAssistMinWords = 512

// gcTrigger is the global-collection trigger threshold in allocated global
// words. Legacy mode uses the static configuration value. Concurrent mode
// uses the pacer's moving trigger, and is inert (MaxInt) while a cycle is in
// flight — evacuation doubles the active chunkage mid-cycle, and re-raising
// pending during a mark would wedge the protocol.
func (rt *Runtime) gcTrigger() int {
	if !rt.Cfg.ConcurrentGlobal {
		return rt.Cfg.GlobalTriggerWords
	}
	g := &rt.global
	if g.marking || g.termPending {
		return math.MaxInt
	}
	if g.trigger > 0 {
		return g.trigger
	}
	return rt.Cfg.GlobalTriggerWords
}

// globalSnapshot is the concurrent collector's first STW window, entered by
// every vproc from participateGlobal while global.pending is up. It reuses
// the legacy rendezvous barriers (a cycle uses the snapshot set, then the
// termination set, strictly in order).
func (vp *VProc) globalSnapshot() {
	rt := vp.rt
	g := &rt.global
	start := vp.Now()

	g.entry.Arrive(vp.proc)

	// The leader condemns the active chunks, exactly as in the legacy
	// phase 2. Invalidated current chunks are all from-space now, so
	// nulling them loses nothing.
	if vp.ID == g.leader {
		g.windowStart = vp.Now()
		g.fromChunks = rt.Chunks.TakeActive()
		for _, c := range g.fromChunks {
			c.FromSpace = true
		}
		rt.Stats.ChunksFromSpace += len(g.fromChunks)
		for _, o := range rt.VProcs {
			o.curChunk = nil
		}
		g.scanning = true
		vp.advance(int64(len(g.fromChunks)) * 25) // list gathering
	}
	g.setup.Arrive(vp.proc)

	// Root snapshot: roots and the entire local heap including the live
	// nursery (no minor/major precedes this window). Referents are
	// evacuated into fresh to-space chunks, which stay gray for the mark.
	vp.globalScanRoots(true)
	if vp.ID == g.leader {
		for _, pa := range rt.globalRoots {
			*pa = vp.globalForward(*pa)
		}
		vp.adoptCrashedHeaps()
	}
	g.scanDone.Arrive(vp.proc)

	// Roots are black; the world restarts with the mark in flight.
	if vp.ID == g.leader {
		g.markStartAllocated = rt.Chunks.AllocatedWords
		g.marking = true
		g.pending = false
		d := vp.Now() - g.windowStart
		rt.Stats.SnapshotNs += d
		rt.emit(GCEvent{Kind: EvSnapshot, VProc: vp.ID, At: vp.Now(), Ns: d})
	}
	g.finish.Arrive(vp.proc)
	vp.Stats.GlobalNs += vp.Now() - start
}

// gcAssist drains gray to-space data in direct style (each evacuation and
// chunk fetch is its own engine charge), stopping at an object boundary once
// at least budget words have been scanned or no reachable gray work remains.
// Runs only on the vproc's own coroutine. Returns the words scanned.
func (vp *VProc) gcAssist(budget int) int {
	rt := vp.rt
	start := vp.Now()
	scanned := 0
	for scanned < budget {
		progressed := false
		// Drain our own allocation chunk first: it is reachable by no
		// other vproc's assist (current chunks are never on the scan
		// lists).
		for c := vp.curChunk; c != nil && c.Scan < c.Top; {
			progressed = true
			scanned += heap.HeaderLen(c.Region.Words[c.Scan]) + 1
			vp.scanChunkStep(c)
			if scanned >= budget {
				break
			}
			if vp.curChunk != c {
				// The chunk filled mid-scan and was replaced;
				// getChunk queued it for later completion.
				break
			}
		}
		if scanned >= budget {
			break
		}
		// Pop a pending chunk, node-local first.
		c := vp.popScanChunk()
		if c == nil {
			if !progressed {
				break
			}
			continue
		}
		for c.Scan < c.Top {
			scanned += heap.HeaderLen(c.Region.Words[c.Scan]) + 1
			vp.scanChunkStep(c)
			if scanned >= budget {
				break
			}
		}
		if c.Scan < c.Top {
			// Budget exhausted mid-chunk: hand the remainder back to
			// the lists (object boundary — scanChunkStep completed).
			rt.enqueueScan(c)
			break
		}
	}
	vp.Stats.MarkAssistWords += int64(scanned)
	vp.Stats.MarkAssistNs += vp.Now() - start
	return scanned
}

// gcMarkPoint is the mutator's safepoint hook during a concurrent mark: pay
// down the allocation-paced assist debt (scan 2x the words allocated since
// the last safepoint — the mark must outrun allocation to terminate), and
// request termination once no gray data remains anywhere. A vproc whose own
// current chunk holds gray data assists even without debt: no other vproc
// can reach that chunk, so the owner is the only one who can retire it.
func (vp *VProc) gcMarkPoint() {
	rt := vp.rt
	g := &rt.global
	if !g.marking || g.termPending || vp.crashed {
		return
	}
	debt := vp.assistDebt
	vp.assistDebt = 0
	budget := 2 * debt
	if c := vp.curChunk; budget < gcAssistMinWords && c != nil && c.Scan < c.Top {
		budget = gcAssistMinWords
	}
	if budget > 0 {
		if budget < gcAssistMinWords {
			budget = gcAssistMinWords
		}
		vp.gcAssist(budget)
	}
	if g.marking && !g.termPending && rt.globalScanDrained() {
		rt.requestGlobalTermination(vp)
	}
}

// gcMarkAttention reports whether an idle vproc has mark work to run
// off-machine: gray data it can reach (its own current chunk or the scan
// lists), or a fully drained mark that needs its termination requested. It
// is called from inside the idle sweep's step function, so it only reads
// state mutated by coroutine-bound vprocs and writes nothing.
func (vp *VProc) gcMarkAttention() bool {
	g := &vp.rt.global
	if !g.marking || g.termPending {
		return false
	}
	if c := vp.curChunk; c != nil && c.Scan < c.Top {
		return true
	}
	for _, l := range g.scanByNode {
		if len(l) > 0 {
			return true
		}
	}
	// No listed work and our chunk is clean: if the mark is globally
	// drained the idle handler must request termination; if gray data
	// hides in another vproc's current chunk only its owner can help.
	return vp.rt.globalScanDrained()
}

// gcMarkIdle runs mark work on an idle vproc's own coroutine: drain
// everything reachable, then request termination if the mark is done.
func (vp *VProc) gcMarkIdle() {
	rt := vp.rt
	g := &rt.global
	if !g.marking || g.termPending {
		return
	}
	vp.gcAssist(math.MaxInt)
	if g.marking && !g.termPending && rt.globalScanDrained() {
		rt.requestGlobalTermination(vp)
	}
}

// gcWriteBarrier is the Dijkstra-style insertion barrier: shade the value
// being stored into a global object. White (from-space) values are evacuated
// on the spot — the store then publishes a black-safe to-space address — and
// the evacuation is charged to the mutator through the NUMA cost model
// (globalForward's copy charges). Everything else passes through chargeless,
// and outside a mark the barrier is the identity.
func (vp *VProc) gcWriteBarrier(a heap.Addr) heap.Addr {
	if a == 0 || !vp.rt.global.marking {
		return a
	}
	start := vp.Now()
	na := vp.globalForward(a)
	if vp.Now() != start {
		vp.Stats.BarrierHits++
		vp.Stats.BarrierNs += vp.Now() - start
	}
	return na
}

// requestGlobalTermination raises the termination rendezvous the way
// requestGlobalGC raises the snapshot one: set the flag and zero every live
// vproc's allocation limit. The caller observed globalScanDrained in the
// same engine segment, so no gray data can appear before the flag is up
// (allocation is a safepoint, and safepoints now divert to the rendezvous).
func (rt *Runtime) requestGlobalTermination(vp *VProc) {
	g := &rt.global
	g.termPending = true
	g.termStartNs = vp.Now()
	for _, other := range rt.VProcs {
		if other.crashed {
			continue
		}
		other.Local.ZeroLimit()
		if other != vp {
			vp.advance(rt.Cfg.SignalVProcNs)
		}
	}
}

// participateTermination is the safepoint service for a pending termination
// window, with the same heap-idle guard as participateGlobal: a thief
// mid-promotion out of this heap must finish before the world stops.
func (vp *VProc) participateTermination() {
	vp.waitHeapIdle()
	if vp.rt.global.termPending {
		vp.globalTerminate()
	}
}

// participateGC services whichever stop-the-world rendezvous is pending. In
// legacy mode termination is never pending, so this is exactly the old
// participateGlobal call.
func (vp *VProc) participateGC() {
	if vp.rt.global.pending {
		vp.participateGlobal()
	}
	if vp.rt.global.termPending {
		vp.participateTermination()
	}
}

// globalTerminate is the concurrent collector's second STW window: rescan
// all roots (mutators created and re-rooted objects during the mark), heal
// the unbarriered global-root object slots, drain the mark to empty, repair
// promotion forwarding, verify the tri-color invariant (Debug), and release
// the from-space.
func (vp *VProc) globalTerminate() {
	rt := vp.rt
	g := &rt.global
	start := vp.Now()

	g.termEntry.Arrive(vp.proc)
	if vp.ID == g.leader {
		g.windowStart = vp.Now()
	}

	// Second root scan: everything a mutator stored into its roots, queue,
	// proxies, parked continuations, or local heap since the snapshot.
	// Live nurseries are part of the root set (no minor precedes this
	// window either).
	vp.globalScanRoots(true)
	if vp.ID == g.leader {
		for _, pa := range rt.globalRoots {
			*pa = vp.globalForward(*pa)
		}
		vp.rescanGlobalRootObjects()
		vp.adoptCrashedHeaps()
	}
	vp.globalScanLoop()

	// Drained globally: forwarding targets are final. Repair this vproc's
	// promotion forwarding words — both heap areas, since the nursery is
	// live in concurrent mode — while the from-space headers are intact.
	vp.repairLocalForwarding()
	vp.repairNurseryForwarding()
	if vp.ID == g.leader {
		for _, dead := range rt.VProcs {
			if dead.crashed {
				dead.repairLocalForwarding()
				dead.repairNurseryForwarding()
			}
		}
	}
	g.termScanDone.Arrive(vp.proc)

	if vp.ID == g.leader {
		if rt.Cfg.Debug {
			for _, c := range rt.Chunks.Active() {
				if !c.FromSpace && c.Scan < c.Top {
					panic(fmt.Sprintf("core: to-space chunk r%d (node %d, owner %d) left unscanned at termination: scan=%d top=%d",
						c.Region.ID, c.Node, c.Owner, c.Scan, c.Top))
				}
			}
			if err := rt.VerifyTriColor(); err != nil {
				panic(fmt.Sprintf("core: at mark termination: %v", err))
			}
		}
		markEndAllocated := rt.Chunks.AllocatedWords
		for _, c := range g.fromChunks {
			rt.Chunks.Release(c)
			vp.advance(20)
		}
		g.fromChunks = nil
		g.scanning = false
		g.marking = false
		g.termPending = false
		rt.Stats.GlobalGCs++
		rt.Stats.LastGlobalSurvivedWords = rt.Chunks.AllocatedWords
		rt.Stats.GlobalCopied += g.copied
		rt.Stats.GlobalNs += vp.Now() - g.startNs
		d := vp.Now() - g.windowStart
		rt.Stats.TermNs += d
		rt.updatePacer(markEndAllocated)
		rt.emit(GCEvent{Kind: EvTermination, VProc: vp.ID, At: vp.Now(), Ns: d})
		rt.emit(GCEvent{Kind: EvGlobalEnd, VProc: vp.ID, At: vp.Now(), Ns: vp.Now() - g.startNs, Words: g.copied})
		g.copied = 0
		// Residual debt dies with the cycle: it paces assists against
		// this mark's gray set, which no longer exists.
		for _, o := range rt.VProcs {
			o.assistDebt = 0
		}
		if rt.Cfg.Debug {
			if err := rt.VerifyHeap(); err != nil {
				panic(fmt.Sprintf("core: after concurrent global GC: %v", err))
			}
		}
	}
	g.termFinish.Arrive(vp.proc)
	vp.Stats.GlobalNs += vp.Now() - start
}

// gcDirtyRoot marks a registered global-root object for the termination
// window's rescan: the caller just stored an address read out of unscanned
// chain data into one of its traced slots, which may be a from-space
// reference planted in an already-black object. Shading the stored value
// instead would evacuate mid-commit — an advance inside a segment whose
// caller already observed queue state, reopening the double-delivery race —
// so the heal is deferred to the termination window. Host-side bookkeeping:
// chargeless, deterministic (appends happen in virtual-time order), and a
// no-op outside a mark.
func (vp *VProc) gcDirtyRoot(a heap.Addr) {
	g := &vp.rt.global
	if !g.marking || a == 0 || g.dirtySet[a] {
		return
	}
	if g.dirtySet == nil {
		g.dirtySet = make(map[heap.Addr]bool)
	}
	g.dirtySet[a] = true
	g.dirtyRoots = append(g.dirtyRoots, a)
}

// rescanGlobalRootObjects re-forwards the traced slots of every global-root
// object dirtied during the mark. Channel records are the motivating case:
// popping a message rewrites the record's head link with an address read out
// of the (possibly unscanned) chain node, without the write barrier, so the
// record can accumulate white references during the mark. Clean records need
// no rescan: they were evacuated gray at the snapshot and their slots were
// forwarded when the drain scanned them. Re-forwarding the dirty slots here
// heals them and seeds the reachable chain nodes gray; the termination drain
// then scans the chains themselves. Charged as one streaming read per dirty
// object plus the usual evacuation charges.
func (vp *VProc) rescanGlobalRootObjects() {
	rt := vp.rt
	for _, a := range rt.global.dirtyRoots {
		heap.ScanObject(rt.Space, rt.Descs, a, func(_ int, p heap.Addr) heap.Addr {
			return vp.globalForward(p)
		})
		n := rt.Space.ObjectLen(a)
		node := rt.Space.NodeOf(a)
		vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, n*8, numa.AccessMemory))
	}
	rt.global.dirtyRoots = nil
	rt.global.dirtySet = nil
}

// emergencyConcurrent is the memory-pressure escalation under the concurrent
// collector: chunks only return to the pool at a cycle's termination, so the
// emergency path drives the whole in-flight cycle — start one if none is
// running, take the snapshot, assist the mark to exhaustion, and run the
// termination window.
func (vp *VProc) emergencyConcurrent() {
	rt := vp.rt
	g := &rt.global
	if !g.pending && !g.marking && !g.termPending {
		rt.requestGlobalGC(vp)
	}
	if g.pending {
		vp.participateGlobal()
	}
	for g.marking && !g.termPending {
		vp.gcAssist(math.MaxInt)
		if !g.marking || g.termPending {
			break
		}
		if rt.globalScanDrained() {
			rt.requestGlobalTermination(vp)
			break
		}
		// Gray data is stuck in another vproc's current chunk; only its
		// owner can drain it. Poll until it does.
		vp.advance(rt.Cfg.PollNs)
	}
	if g.termPending {
		vp.participateTermination()
	}
}

// resolveAddr follows forwarding words to the live copy — VProc.resolve for
// host-side callers with no acting vproc (Channel.Close walks its chain
// outside any vproc). Chargeless, and the identity when no forwarding words
// exist (always, outside a collection cycle).
func (rt *Runtime) resolveAddr(a heap.Addr) heap.Addr {
	for a != 0 {
		h := rt.Space.Header(a)
		if heap.IsHeader(h) {
			return a
		}
		a = heap.ForwardTarget(h)
	}
	return a
}

// updatePacer sets the next cycle's trigger at the end of a collection
// (GOGC discipline). The goal heap is survived*(1+GCPercent/100); the
// trigger backs off from the goal by twice the allocation observed during
// the last mark (clamped to [goal/8, goal/2]) so the next cycle terminates
// near the goal instead of overshooting it. markEndAllocated is the active
// chunkage just before the from-space release.
func (rt *Runtime) updatePacer(markEndAllocated int) {
	g := &rt.global
	survived := rt.Chunks.AllocatedWords
	goal := survived + survived*rt.Cfg.GCPercent/100
	if goal < rt.Cfg.GlobalTriggerWords {
		goal = rt.Cfg.GlobalTriggerWords
	}
	headroom := 2 * (markEndAllocated - g.markStartAllocated)
	if min := goal / 8; headroom < min {
		headroom = min
	}
	if max := goal / 2; headroom > max {
		headroom = max
	}
	g.trigger = goal - headroom
	if floor := survived + goal/8; g.trigger < floor {
		g.trigger = floor
	}
}
