package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/numa"
	"repro/internal/vtime"
)

// Global collection (§3.4): a parallel stop-the-world copying collection of
// the global heap. The triggering vproc becomes the leader, sets the global
// flag, and signals all other vprocs by zeroing their allocation-limit
// pointers. Every vproc first performs its minor and major collections, so
// on entry all live local data is young data whose outgoing global
// references are the global roots. From-space chunks are gathered per NUMA
// node; each vproc scans to-space chunks node-locally, preserving affinity,
// and from-space chunks return to the free pool (node-affine) at the end.
type globalState struct {
	pending bool
	// scanning is true while from-space chunks exist: the whole STW scan
	// phase in legacy mode, and the whole snapshot→termination cycle in
	// concurrent mode. getChunk consults it to queue replaced chunks that
	// still hold unscanned data.
	scanning bool
	leader   int

	// Concurrent-mode cycle state (ConcurrentGlobal). marking is true
	// between the snapshot window and the termination window: mutators
	// run, the write barrier is armed, and assists drain gray chunks.
	// termPending signals the termination rendezvous the way pending
	// signals the snapshot one.
	marking     bool
	termPending bool

	entry    *vtime.Barrier
	setup    *vtime.Barrier
	scanDone *vtime.Barrier
	finish   *vtime.Barrier

	// Termination-window barriers (concurrent mode only). Separate from
	// the snapshot set so a crash mid-mark can drop the dead vproc from
	// both rendezvous independently.
	termEntry    *vtime.Barrier
	termScanDone *vtime.Barrier
	termFinish   *vtime.Barrier

	// scanByNode holds to-space chunks with unscanned data, grouped by
	// the node their pages live on.
	scanByNode [][]*heap.Chunk
	fromChunks []*heap.Chunk
	copied     int64
	startNs    int64

	// Pacer state (concurrent mode). trigger is the next cycle's start
	// threshold in active global words (0 = use Cfg.GlobalTriggerWords);
	// markStartAllocated records the active words at snapshot so the
	// cycle's concurrent allocation rate can set the next headroom.
	// windowStart times the current STW window; termStartNs stamps the
	// termination request.
	trigger            int
	markStartAllocated int
	termStartNs        int64
	windowStart        int64

	// dirtyRoots lists the registered global-root objects whose traced
	// slots were rewritten during the current mark with addresses read out
	// of unscanned data (channel records popping their head link) — the
	// one store path that can plant a from-space reference in an
	// already-black object without the insertion barrier. The termination
	// window rescans exactly these instead of every registered root.
	// Appended in virtual-time order, so the set is deterministic.
	dirtyRoots []heap.Addr
	dirtySet   map[heap.Addr]bool
}

func (g *globalState) init(rt *Runtime) {
	n := rt.Cfg.NumVProcs
	c := rt.Cfg.BarrierNs
	g.entry = vtime.NewBarrier(n, c)
	g.setup = vtime.NewBarrier(n, c)
	g.scanDone = vtime.NewBarrier(n, c)
	g.finish = vtime.NewBarrier(n, c)
	g.termEntry = vtime.NewBarrier(n, c)
	g.termScanDone = vtime.NewBarrier(n, c)
	g.termFinish = vtime.NewBarrier(n, c)
	g.scanByNode = make([][]*heap.Chunk, rt.Cfg.Topo.NumNodes())
}

// requestGlobalGC is called by the vproc that observed the trigger (§3.4
// steps 1-2): set the flag, take leadership, and signal every other vproc
// by zeroing its allocation-limit pointer.
func (rt *Runtime) requestGlobalGC(vp *VProc) {
	g := &rt.global
	g.pending = true
	rt.wakeAllIdle()
	g.leader = vp.ID
	g.startNs = vp.Now()
	rt.emit(GCEvent{Kind: EvGlobalStart, VProc: vp.ID, At: g.startNs})
	// Zero every vproc's limit pointer, including the requester's own, so
	// its next safepoint joins the collection even if it stops
	// allocating. Crashed vprocs are not signalled: they left the barrier
	// protocol at crash time (Barrier.Drop) and will never reach another
	// safepoint, so signalling them would charge time for a vproc that
	// cannot respond.
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

// participateGlobal is executed by a vproc that noticed a pending global
// collection at a safepoint: §3.4 step 3 requires it to first perform its
// minor and major collections, then join the parallel global phase.
// minorGC triggers the major automatically while global.pending is set.
//
// The heap-idle wait is load-bearing: a thief may be mid-promotion out of
// this vproc's heap (heapBusy), suspended inside one of the promotion's
// chunk-fetch or copy charges. Collecting under it would move and slide the
// very objects the thief's in-flight addresses name — the thief then writes
// forwarding words at stale offsets, splitting live objects (observed as
// duplicated and corrupted channel messages under the open-loop traffic
// harness). The allocation safepoint has always waited; the preemption
// path must too.
func (vp *VProc) participateGlobal() {
	vp.waitHeapIdle()
	if vp.rt.Cfg.ConcurrentGlobal {
		// Concurrent mode: the rendezvous is only the snapshot window —
		// no minor/major first (the root walk covers the nursery), no
		// draining scan. The mark proceeds interleaved with mutators.
		if vp.rt.global.pending {
			vp.globalSnapshot()
		}
		return
	}
	vp.minorGC()
	if vp.rt.global.pending {
		vp.globalCollect()
	}
}

// globalCollect runs the parallel phase of a global collection. All vprocs
// arrive here with empty nurseries and only young data in their local
// heaps.
func (vp *VProc) globalCollect() {
	rt := vp.rt
	g := &rt.global
	start := vp.Now()

	// Phase 1: rendezvous. After this barrier no vproc allocates in the
	// global heap until scanning starts.
	g.entry.Arrive(vp.proc)

	// Phase 2: the leader condemns the global heap: all active chunks
	// become from-space, gathered on a per-node basis.
	if vp.ID == g.leader {
		g.fromChunks = rt.Chunks.TakeActive()
		for _, c := range g.fromChunks {
			c.FromSpace = true
		}
		rt.Stats.ChunksFromSpace += len(g.fromChunks)
		// Condemning invalidates every vproc's current chunk.
		for _, o := range rt.VProcs {
			o.curChunk = nil
		}
		g.scanning = true
		vp.advance(int64(len(g.fromChunks)) * 25) // list gathering
	}
	g.setup.Arrive(vp.proc)

	// Phase 3: each vproc scans its roots and local heap, copying
	// reachable from-space objects into fresh to-space chunks obtained
	// on its own node, then participates in parallel per-node chunk
	// scanning until no unscanned chunks remain anywhere.
	vp.globalScanRoots(false)
	if vp.ID == g.leader {
		for _, pa := range rt.globalRoots {
			*pa = vp.globalForward(*pa)
		}
		// Crashed vprocs cannot scan their own retired heaps; the leader
		// adopts them (proxies, frozen local data) so messages and proxied
		// objects they left behind survive the collection.
		vp.adoptCrashedHeaps()
	}
	vp.globalScanLoop()

	// The scan is globally drained (globalScanLoop only returns once no
	// unscanned data remains anywhere), so forwarding targets are final:
	// repair this vproc's local promotion-forwarding words before the
	// barrier, while the from-space headers are still intact.
	vp.repairLocalForwarding()
	if vp.ID == g.leader {
		// Same repair for the retired heaps the leader adopted above.
		for _, dead := range rt.VProcs {
			if dead.crashed {
				dead.repairLocalForwarding()
				dead.repairNurseryForwarding()
			}
		}
	}

	g.scanDone.Arrive(vp.proc)

	// Phase 4: the leader returns the old from-space chunks to the
	// free-space chunk pool (node-affine) and clears the flag.
	if vp.ID == g.leader {
		if rt.Cfg.Debug {
			for _, c := range rt.Chunks.Active() {
				if !c.FromSpace && c.Scan < c.Top {
					panic(fmt.Sprintf("core: to-space chunk r%d (node %d, owner %d) left unscanned: scan=%d top=%d",
						c.Region.ID, c.Node, c.Owner, c.Scan, c.Top))
				}
			}
		}
		for _, c := range g.fromChunks {
			rt.Chunks.Release(c)
			vp.advance(20)
		}
		g.fromChunks = nil
		g.pending = false
		g.scanning = false
		rt.Stats.GlobalGCs++
		// Active chunkage right after a full collection is the survived
		// set — the occupancy floor no amount of collecting gets below.
		rt.Stats.LastGlobalSurvivedWords = rt.Chunks.AllocatedWords
		rt.Stats.GlobalCopied += g.copied
		rt.Stats.GlobalNs += vp.Now() - g.startNs
		rt.emit(GCEvent{Kind: EvGlobalEnd, VProc: vp.ID, At: vp.Now(), Ns: vp.Now() - g.startNs, Words: g.copied})
		g.copied = 0
		if rt.Cfg.Debug {
			if err := rt.VerifyHeap(); err != nil {
				panic(fmt.Sprintf("core: after global GC: %v", err))
			}
		}
	}
	g.finish.Arrive(vp.proc)
	vp.Stats.GlobalNs += vp.Now() - start
}

// globalForward copies a from-space global object into this vproc's
// to-space chunk and returns the new address. Local addresses and live
// to-space addresses pass through unchanged.
//
// It is assembled from forwardClass (the chargeless classification) and
// globalCopy (the evacuation plus its charge) so the step-driven collectors
// in stepscan.go can issue the identical mutation/charge sequence one turn
// at a time.
func (vp *VProc) globalForward(a heap.Addr) heap.Addr {
	rt := vp.rt
	na, h, need := vp.forwardClass(a)
	if !need {
		return na
	}
	n := heap.HeaderLen(h)
	if n+1 > rt.Cfg.ChunkWords-1 {
		panic(fmt.Sprintf("core: object of %d words exceeds chunk size %d", n, rt.Cfg.ChunkWords))
	}
	if vp.curChunk == nil || !vp.curChunk.CanAlloc(n) {
		rt.getChunk(vp)
		// The chunk fetch advanced virtual time, so another scanner may
		// have evacuated this very object meanwhile (both held a
		// reference to it). Re-classify instead of copying blindly: a
		// second copy would overwrite the forwarding pointer and fork
		// the object's identity between the two to-space copies.
		na, h, need = vp.forwardClass(a)
		if !need {
			return na
		}
	}
	na, d := vp.globalCopy(a, h, vp.curChunk)
	vp.advance(d)
	return na
}

// forwardClass classifies a pointer for global forwarding without charging:
// need is false for the pass-through cases (nil, live local-heap addresses,
// live to-space objects, already-forwarded objects), with na the final
// address; need is true when the object must be copied, with h its
// still-live from-space header (read here, before any chunk fetch, exactly
// as the direct code reads it).
//
// A local-heap address is resolved through promotion forwarding words before
// classification: when the referent was promoted, the reference's real
// target is the global copy, which may be from-space — leaving the
// reference pointing at the local forwarding word would hide the only live
// path to the object from the collector, condemning it with its chunk (the
// reference then dangles into reused from-space). Live local objects pass
// through untouched, so runs without stale promotion words are
// schedule-identical.
func (vp *VProc) forwardClass(a heap.Addr) (na heap.Addr, h uint64, need bool) {
	rt := vp.rt
	if a == 0 {
		return a, 0, false
	}
	r := rt.Space.Region(a.RegionID())
	for r.Kind != heap.RegionChunk {
		lw := r.Words[a.Word()-1]
		if heap.IsHeader(lw) {
			return a, 0, false // live local object: not the global collector's concern
		}
		a = heap.ForwardTarget(lw)
		r = rt.Space.Region(a.RegionID())
	}
	// Find the chunk: region IDs map 1:1 to chunk regions; the chunk
	// carries the from-space flag.
	c := rt.chunkOfRegion(r)
	if !c.FromSpace {
		return a, 0, false
	}
	h = rt.Space.Header(a)
	if !heap.IsHeader(h) {
		t := heap.ForwardTarget(h)
		if rt.Cfg.Debug {
			if tc := rt.Chunks.ChunkOf(t.RegionID()); tc != nil && tc.FromSpace {
				panic(fmt.Sprintf("core: forwarding target %v is itself from-space", t))
			}
		}
		return t, 0, false
	}
	return a, h, true
}

// globalCopy evacuates the from-space object at a (header h, read at
// classification time) into dst, which must have room, and returns the new
// address plus the copy charge. All mutations happen here, at the charge's
// virtual instant; the caller advances (direct style) or returns the
// duration from its step.
func (vp *VProc) globalCopy(a heap.Addr, h uint64, dst *heap.Chunk) (heap.Addr, int64) {
	rt := vp.rt
	r := rt.Space.Region(a.RegionID())
	n := heap.HeaderLen(h)
	na := dst.Bump(h)
	copy(rt.Space.Payload(na), r.Words[a.Word():a.Word()+n])
	rt.Space.SetHeader(a, heap.MakeForward(na))
	rt.global.copied += int64(n + 1)
	if rt.Cfg.Debug {
		heap.ScanObject(rt.Space, rt.Descs, na, func(slot int, p heap.Addr) heap.Addr {
			if p != 0 {
				if p.RegionID() < 0 || p.RegionID() >= rt.Space.NumRegions() {
					panic(fmt.Sprintf("core: global copy of %v has garbage pointer %v in slot %d", a, p, slot))
				}
				if pr := rt.Space.Region(p.RegionID()); pr.Kind == heap.RegionLocal {
					panic(fmt.Sprintf("core: global copy of %v points into vproc %d local heap (slot %d)", a, pr.Owner, slot))
				}
			}
			return p
		})
	}

	// Global copies always move metered DRAM traffic on both sides, so
	// there is nothing to fuse: the charge advances at its exact instant
	// (the batched-charge contract only covers meterless transfers).
	srcNode := rt.Space.NodeOf(a)
	dstNode := rt.Space.NodeOf(na)
	return na, rt.Machine.CopyStreamCost(vp.Now(), vp.Core, srcNode, dstNode, (n+1)*8,
		numa.AccessMemory, numa.AccessMemory)
}

// globalScanRoots scans the vproc's roots and entire local heap for
// pointers into from-space (§3.4: "scans the vproc's roots and local heap,
// placing any objects pointed-to into this new to-space chunk"). The walk
// normally runs as a step-driven iterator (stepscan.go) so the N vprocs'
// finely interleaved copy charges cost inline steps, not coroutine
// handoffs; the NoStepKernels ablation forces the direct form, which is
// schedule-identical.
//
// withNursery extends the local-heap walk over the live nursery
// [NurseryStart, Alloc): the concurrent collector's STW windows skip the
// minor/major collections the legacy protocol runs first, so nursery data
// is part of the root set there. The legacy path passes false and is
// untouched.
func (vp *VProc) globalScanRoots(withNursery bool) {
	if vp.rt.Cfg.NoStepKernels {
		vp.globalScanRootsDirect(withNursery)
		return
	}
	vp.globalScanRootsStep(withNursery)
}

// globalScanRootsDirect is the direct-style root walk: every copy charge is
// its own Advance.
func (vp *VProc) globalScanRootsDirect(withNursery bool) {
	rt := vp.rt
	fw := vp.globalForward
	for i, a := range vp.roots {
		vp.roots[i] = fw(a)
	}
	vp.queue.each(func(t *Task) {
		for i, a := range t.env {
			t.env[i] = fw(a)
		}
	})
	for i, pa := range vp.proxies {
		npa := fw(pa)
		vp.proxies[i] = npa
		// The proxy's local slot is normally a local-heap address (passed
		// through untouched), but the major collection that precedes this
		// phase may have promoted the proxied object, leaving a *global*
		// address in the local slot — which is from-space now. Only the
		// owner sees the slot, so the owner forwards it; the chunk
		// scanners trace just the global slot.
		p := rt.Space.Payload(npa)
		p[heap.ProxyLocalSlot] = uint64(fw(heap.Addr(p[heap.ProxyLocalSlot])))
	}
	if vp.proxyIdx != nil {
		// The proxies moved; rebuild the address index.
		clear(vp.proxyIdx)
		for i, pa := range vp.proxies {
			vp.proxyIdx[pa] = i
		}
	}
	for _, t := range vp.resultTasks {
		t.result = fw(t.result)
	}
	for _, r := range vp.parked {
		for i, a := range r.env {
			r.env[i] = fw(a)
		}
	}
	// Walk the local heap (young data only, after the preceding
	// minor+major).
	lh := vp.Local
	words := lh.Region.Words
	walkRange := func(lo, hi int) {
		for scan := lo; scan < hi; {
			h := words[scan]
			var n int
			if heap.IsHeader(h) {
				obj := heap.MakeAddr(lh.Region.ID, scan+1)
				heap.ScanObject(rt.Space, rt.Descs, obj, func(_ int, p heap.Addr) heap.Addr {
					return fw(p)
				})
				n = heap.HeaderLen(h)
			} else {
				n = rt.Space.ObjectLen(heap.ForwardTarget(h))
			}
			scan += n + 1
		}
	}
	walked := lh.OldTop - 1
	walkRange(1, lh.OldTop)
	if withNursery {
		walkRange(lh.NurseryStart, lh.Alloc)
		walked += lh.Alloc - lh.NurseryStart
	}
	// Charge the local-heap walk as a single streaming read: the whole
	// walk is one fused charge (the maximal batch), not one per object.
	node := rt.Space.NodeOf(heap.MakeAddr(lh.Region.ID, 1))
	vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, walked*8, numa.AccessCache))
}

// repairLocalForwarding rewrites the promotion forwarding words of this
// vproc's local heap at the end of a global collection's scan phase. A
// promotion leaves a forwarding word in the local heap whose target is about
// to be condemned with its chunk: if the promoted object was evacuated (it
// was reachable), the word is re-aimed at the to-space copy, so later
// resolutions and heap walks never chase into from-space; if it was not (the
// object is garbage — every traced reference was resolved past the word by
// forwardClass), the word is neutralized into a dead raw header of the same
// size, keeping the heap walkable without referencing the released chunk.
// The repair is collector metadata maintenance folded into the scan phase:
// it reads only state the scan already touched and is not charged, so
// schedules are unchanged.
func (vp *VProc) repairLocalForwarding() {
	vp.repairForwardingRange(1, vp.Local.OldTop)
}

// repairNurseryForwarding is the nursery half of the repair. Live vprocs
// never need it — the minor+major collections that precede the global phase
// empty their nurseries — but a crashed vproc's heap is frozen mid-mutation
// with live nursery data (and possibly promotion forwarding words there),
// so the adopting leader repairs both ranges.
func (vp *VProc) repairNurseryForwarding() {
	vp.repairForwardingRange(vp.Local.NurseryStart, vp.Local.Alloc)
}

// repairForwardingRange rewrites the promotion forwarding words in local
// words [lo, hi); see repairLocalForwarding for the protocol argument.
func (vp *VProc) repairForwardingRange(lo, hi int) {
	rt := vp.rt
	lh := vp.Local
	words := lh.Region.Words
	for scan := lo; scan < hi; {
		h := words[scan]
		var n int
		if heap.IsHeader(h) {
			n = heap.HeaderLen(h)
		} else {
			t := heap.ForwardTarget(h)
			if c := rt.Chunks.ChunkOf(t.RegionID()); c != nil && !c.FromSpace {
				// The target is already a live to-space object: a
				// promotion that ran during the concurrent mark forwarded
				// straight into to-space. The word is correct as it
				// stands. (In the legacy STW protocol every chunk is
				// condemned before any repair runs, so this arm never
				// fires there.)
				n = rt.Space.ObjectLen(t)
			} else if th := rt.Space.Header(t); heap.IsHeader(th) {
				// Unevacuated: dead with its chunk.
				n = heap.HeaderLen(th)
				words[scan] = heap.MakeHeader(heap.IDRaw, n)
			} else {
				nt := heap.ForwardTarget(th)
				words[scan] = heap.MakeForward(nt)
				n = rt.Space.ObjectLen(nt)
			}
		}
		scan += n + 1
	}
}

// enqueueScan registers a to-space chunk as holding unscanned data.
func (rt *Runtime) enqueueScan(c *heap.Chunk) {
	if rt.Cfg.Debug {
		for n, l := range rt.global.scanByNode {
			for _, q := range l {
				if q == c {
					panic(fmt.Sprintf("core: chunk r%d double-enqueued on scan list %d (scan=%d top=%d owner=%d)",
						c.Region.ID, n, c.Scan, c.Top, c.Owner))
				}
			}
		}
		for _, vp := range rt.VProcs {
			if vp.scanningChunk == c {
				panic(fmt.Sprintf("core: chunk r%d enqueued while vproc %d is mid-object in it", c.Region.ID, vp.ID))
			}
		}
	}
	node := c.Node
	if !rt.Cfg.NodeLocalScan {
		node = 0 // ablation: one shared list
	}
	rt.global.scanByNode[node] = append(rt.global.scanByNode[node], c)
}

// globalScanLoop drains unscanned to-space data: first the vproc's own
// current chunk, then pending chunks from its node's list (falling back to
// other nodes' lists only when its own is empty, charging the remote
// synchronization), until no unscanned data remains anywhere. Like the root
// walk it runs step-driven by default (the stop-the-world scan phase is
// where all N vprocs interleave chunk-by-chunk) with the direct form kept
// as the NoStepKernels ablation.
func (vp *VProc) globalScanLoop() {
	if vp.rt.Cfg.NoStepKernels {
		vp.globalScanLoopDirect()
		return
	}
	vp.globalScanLoopStep()
}

// globalScanLoopDirect is the direct-style scan loop.
func (vp *VProc) globalScanLoopDirect() {
	rt := vp.rt
	for {
		// Drain our own allocation chunk incrementally.
		progressed := false
		for c := vp.curChunk; c != nil && c.Scan < c.Top; {
			progressed = true
			vp.scanChunkStep(c)
			if vp.curChunk != c {
				// The chunk filled mid-scan and was replaced;
				// getChunk queued it for later completion.
				break
			}
		}
		// Pop a pending chunk, preferring the local node.
		if c := vp.popScanChunk(); c != nil {
			for c.Scan < c.Top {
				vp.scanChunkStep(c)
			}
			progressed = true
		}
		if progressed {
			continue
		}
		if rt.globalScanDrained() {
			return
		}
		vp.advance(rt.Cfg.PollNs)
	}
}

// scanChunkStep scans one object of the chunk, copying its from-space
// referents (which may fill the scanner's current chunk and swap it).
func (vp *VProc) scanChunkStep(c *heap.Chunk) {
	rt := vp.rt
	h := c.Region.Words[c.Scan]
	if !heap.IsHeader(h) {
		panic(fmt.Sprintf("core: forwarding pointer in global to-space (vproc %d, chunk r%d node %d from=%v scan=%d top=%d owner=%d word=%#x target=%v)",
			vp.ID, c.Region.ID, c.Node, c.FromSpace, c.Scan, c.Top, c.Owner, h, heap.ForwardTarget(h)))
	}
	obj := heap.MakeAddr(c.Region.ID, c.Scan+1)
	vp.scanningChunk = c
	heap.ScanObject(rt.Space, rt.Descs, obj, func(_ int, p heap.Addr) heap.Addr {
		return vp.globalForward(p)
	})
	vp.scanningChunk = nil
	c.Scan += heap.HeaderLen(h) + 1
	if vp.deferredEnqueue {
		vp.deferredEnqueue = false
		if c.Scan < c.Top {
			rt.enqueueScan(c)
		}
	}
}

// popScanChunk takes a pending chunk, node-local first.
func (vp *VProc) popScanChunk() *heap.Chunk {
	c, d := vp.popScanChunkStart()
	if c != nil {
		vp.advance(d)
	}
	return c
}

// popScanChunkStart is popScanChunk's pre-charge half: it pops the chunk
// and returns it with the synchronization charge, for the step-driven loop
// to return from its turn.
func (vp *VProc) popScanChunkStart() (*heap.Chunk, int64) {
	rt := vp.rt
	g := &rt.global
	take := func(node int) *heap.Chunk {
		l := g.scanByNode[node]
		if len(l) == 0 {
			return nil
		}
		c := l[len(l)-1]
		g.scanByNode[node] = l[:len(l)-1]
		return c
	}
	if c := take(nodeListFor(rt, vp.Node)); c != nil {
		return c, rt.Cfg.ChunkSyncLocalNs
	}
	for n := range g.scanByNode {
		if c := take(n); c != nil {
			// Cross-node fallback keeps the collection live when a
			// node has pending chunks but no vproc.
			rt.Stats.CrossNodeScanned++
			return c, rt.Cfg.ChunkSyncGlobalNs
		}
	}
	return nil, 0
}

// nodeListFor maps a vproc's node to its scan list, honoring the
// shared-list ablation.
func nodeListFor(rt *Runtime, node int) int {
	if !rt.Cfg.NodeLocalScan {
		return 0
	}
	return node
}

// globalScanDrained reports whether no unscanned to-space data remains.
func (rt *Runtime) globalScanDrained() bool {
	for _, l := range rt.global.scanByNode {
		if len(l) > 0 {
			return false
		}
	}
	for _, o := range rt.VProcs {
		if o.curChunk != nil && o.curChunk.Scan < o.curChunk.Top {
			return false
		}
	}
	return true
}

// chunkOfRegion finds the chunk owning a chunk region.
func (rt *Runtime) chunkOfRegion(r *heap.Region) *heap.Chunk {
	c := rt.Chunks.ChunkOf(r.ID)
	if c == nil {
		panic(fmt.Sprintf("core: region %d has no chunk", r.ID))
	}
	return c
}
