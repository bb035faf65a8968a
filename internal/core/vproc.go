package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/numa"
	"repro/internal/vtime"
)

// VProc is a virtual processor (§2.2): an abstraction of a computational
// resource hosted by its own (virtual) thread pinned to a physical core,
// with a private local heap, a current global-heap chunk, and a local work
// queue.
type VProc struct {
	ID   int
	Core int
	Node int

	rt    *Runtime
	proc  *vtime.Proc
	Local *heap.LocalHeap

	// curChunk is the vproc's current global-heap chunk (§3.1).
	curChunk *heap.Chunk

	// roots is the shadow root stack. Workloads address roots by slot
	// index because collections rewrite the entries in place.
	roots []heap.Addr

	// queue is the vproc-local work deque; queued tasks' environments
	// are GC roots.
	queue deque

	// proxies holds the global-heap addresses of proxy objects owned by
	// this vproc; their local slots are additional local-GC roots.
	// proxyIdx maps each registered proxy to its index so dropProxy is
	// O(1) swap-remove instead of a linear scan (channel-heavy workloads
	// resolve proxies constantly). Global collections move proxies and
	// rebuild the map.
	proxies  []heap.Addr
	proxyIdx map[heap.Addr]int

	// parked holds this vproc's parked receive continuations (see
	// channel.go); their captured environments are local-GC roots, like
	// queued task environments.
	parked []*rendezvous

	// timers is this vproc's deadline queue of parked timer continuations
	// (see timer.go). Serviced only by the owner, at safepoints; the
	// entries' rendezvous live on vp.parked, so their environments are
	// GC roots through the same scans.
	timers vtime.TimerQueue

	// pendingFaults holds fault-plan events whose deadlines have passed but
	// which have not executed yet: fireDueTimers can run inside engine step
	// functions where advancing and allocating are illegal, so it defers
	// fault bodies here and checkPreempt drains them on the vproc's own
	// goroutine (see faults.go). inFault guards re-entry — a stall fault
	// sleeping through checkPreempt must not start draining recursively.
	pendingFaults []*FaultEvent
	inFault       bool

	// resultTasks holds completed result-producing tasks this vproc
	// executed whose results have not been joined yet; the results are
	// GC roots of this vproc.
	resultTasks []*Task

	// scanningChunk is the to-space chunk this vproc is currently
	// stepping through during a global collection; if it fills and is
	// replaced mid-step, the re-enqueue is deferred until the step
	// completes (deferredEnqueue) so no second vproc scans it
	// concurrently.
	scanningChunk   *heap.Chunk
	deferredEnqueue bool

	// heapBusy is the virtual lock coordinating thieves with local
	// collections: set while this vproc's local heap is being collected
	// or while a thief is promoting out of it.
	heapBusy bool

	// assistDebt accumulates the words this vproc allocated in the global
	// heap while a concurrent mark was in flight; the next safepoint's
	// mark assist scans proportionally (allocation-paced assists, the
	// GOGC discipline). Only nonzero under Config.ConcurrentGlobal.
	assistDebt int

	// rng is a per-vproc deterministic PRNG for workload use.
	rng uint64

	// crashed marks a vproc killed by a FaultCrash. A crashed vproc never
	// runs again: its proc ended Done, its queue/parked/timers are empty,
	// and its local heap is retired — frozen in place, still readable by
	// thieves resolving proxies, never collected again (see crash.go).
	crashed bool

	// running is the stack of tasks currently executing on this vproc
	// (nested through inline Join); a crash reports them all lost so the
	// outstanding-work count stays exact.
	running []*Task

	// blocked registers this vproc's *blocking* channel waiters (Recv and
	// Select frames, which park the whole vproc). A crash marks them
	// claimed so later senders skip the dead rendezvous instead of
	// delivering into a vproc that will never wake.
	blocked []*rendezvous

	// owned lists channels registered to die with this vproc
	// (Channel.SetOwner): a crash fails them over to SendCrashed / nil
	// wakeups through the close-as-status protocol.
	owned []*Channel

	Stats VPStats
}

// VPStats collects per-vproc runtime statistics.
type VPStats struct {
	MinorGCs        int
	MajorGCs        int
	Promotions      int
	MinorCopied     int64 // words
	MajorCopied     int64 // words
	PromotedWords   int64
	GCNs            int64 // virtual time in local collections
	GlobalNs        int64 // virtual time in global collections
	TasksRun        int64
	Steals          int64
	FailedSteals    int64
	AllocWords      int64
	ChunksRequested int64
	ChanSends       int64 // channel messages sent
	ChanRecvs       int64 // channel messages received
	ChanHandoffs    int64 // sends delivered directly to a parked receiver
	ChanSheds       int64 // sends shed (TrySend on full, or send on closed)
	TimersFired     int64 // timer continuations fired at their deadlines
	FaultsInjected  int64 // fault-plan events executed on this vproc
	FaultStallNs    int64 // virtual time spent in injected stalls
	FaultBurstWords int64 // words allocated by injected heap-pressure bursts
	AllocFailed     int64 // TryAlloc*/TryPromote failures after the emergency ladder
	EmergencyGCs    int64 // emergency collection ladders walked by this vproc
	Crashes         int   // 1 if this vproc was killed by a FaultCrash
	LostTasks       int64 // queued + in-flight tasks lost to the crash
	LostConts       int64 // parked continuations cancelled by the crash
	LostTimers      int64 // pending timer deadlines cancelled by the crash
	BarrierHits     int64 // write-barrier shades that evacuated an object (concurrent GC)
	BarrierNs       int64 // virtual time charged to write-barrier evacuations
	MarkAssistWords int64 // gray words scanned by this vproc's mark assists
	MarkAssistNs    int64 // virtual time spent in mark assists
}

// Runtimer accessors.

// Runtime returns the owning runtime.
func (vp *VProc) Runtime() *Runtime { return vp.rt }

// Now returns the vproc's virtual clock (ns).
func (vp *VProc) Now() int64 { return vp.proc.Now() }

// Crashed reports whether a FaultCrash killed this vproc.
func (vp *VProc) Crashed() bool { return vp.crashed }

// advance charges virtual time.
func (vp *VProc) advance(d int64) { vp.proc.Advance(d) }

// Compute charges ns of pure computation.
func (vp *VProc) Compute(ns int64) {
	if ns > 0 {
		vp.proc.Advance(ns)
	}
}

// Rand returns a deterministic pseudo-random uint64 (xorshift64*).
func (vp *VProc) Rand() uint64 {
	x := vp.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	vp.rng = x
	return x * 0x2545F4914F6CDD1D
}

// --- Root stack ---------------------------------------------------------

// PushRoot registers a heap address as a GC root and returns its slot.
func (vp *VProc) PushRoot(a heap.Addr) int {
	vp.roots = append(vp.roots, a)
	return len(vp.roots) - 1
}

// Root reads a root slot (collections may have rewritten it).
func (vp *VProc) Root(slot int) heap.Addr { return vp.roots[slot] }

// SetRoot overwrites a root slot.
func (vp *VProc) SetRoot(slot int, a heap.Addr) { vp.roots[slot] = a }

// PopRoots discards the top n root slots.
func (vp *VProc) PopRoots(n int) {
	if n > len(vp.roots) {
		panic("core: PopRoots underflow")
	}
	vp.roots = vp.roots[:len(vp.roots)-n]
}

// RootDepth returns the current root-stack depth, for save/restore.
func (vp *VProc) RootDepth() int { return len(vp.roots) }

// TruncateRoots resets the root stack to a saved depth.
func (vp *VProc) TruncateRoots(depth int) { vp.roots = vp.roots[:depth] }

// --- Allocation ---------------------------------------------------------

// safepoint is executed before every allocation: it services pending
// preemption signals (global collection requests, §3.4 step 2), fires due
// timers, waits out a thief that is promoting from this heap, and runs
// minor/major collections until the requested payload fits in the nursery.
func (vp *VProc) safepoint(needWords int) {
	if vp.timers.Len() != 0 {
		vp.fireDueTimers()
	}
	for {
		vp.waitHeapIdle()
		if vp.Local.LimitZeroed() {
			vp.Local.RestoreLimit()
		}
		if vp.rt.global.pending {
			vp.participateGlobal()
			// A new signal can arrive at any time; re-check from
			// the top.
			continue
		}
		if vp.rt.global.termPending {
			vp.participateTermination()
			continue
		}
		if vp.rt.global.marking {
			// Concurrent mark in flight: pay down the allocation-paced
			// assist debt before allocating more. The assist can drain
			// the mark and request termination; re-check from the top.
			vp.gcMarkPoint()
			if vp.rt.global.termPending {
				continue
			}
		}
		if vp.Local.CanAlloc(needWords) {
			return
		}
		vp.minorGC()
		// A minor collection triggers a major collection when the new
		// nursery falls below threshold or a global GC is pending
		// (§3.3); minorGC handles that. A global request arriving
		// during the collection re-zeroes the limit, so only a clean
		// post-collection failure means the object is too large.
		if !vp.Local.CanAlloc(needWords) && !vp.Local.LimitZeroed() && !vp.rt.global.pending {
			panic(fmt.Sprintf("core: object of %d words cannot fit vproc %d nursery (%d words); use smaller leaves",
				needWords, vp.ID, vp.Local.NurseryWords()))
		}
	}
}

// waitHeapIdle spins (in virtual time, through the engine's inline-step
// path) until no thief is promoting out of this vproc's heap. Every path
// that is about to collect — the allocation safepoint and the preemption
// service — must pass through it: a collection under an in-flight promotion
// moves the objects the promoter's addresses name.
func (vp *VProc) waitHeapIdle() {
	if !vp.heapBusy {
		return
	}
	vp.proc.StepWhile(func() (int64, bool) {
		if !vp.heapBusy {
			return 0, true
		}
		return vp.rt.Cfg.SpinNs, false
	})
}

// chargeAllocCost accounts the memory traffic of initializing a fresh
// object in the nursery: the fixed bump-and-init cost and the access cost
// fuse into a single engine advance. Under node-local placement the access
// is meterless, so the charge resolves through the batched cache table
// without touching the machine's general entry point.
func (vp *VProc) chargeAllocCost(words int) {
	m := vp.rt.Machine
	node := vp.rt.Space.NodeOf(heap.MakeAddr(vp.Local.Region.ID, vp.Local.Alloc-1))
	var c int64
	if m.Meterless(vp.Core, node, numa.AccessCache) {
		c = m.CacheAccessCost(words * 8)
	} else {
		c = m.AccessCost(vp.Now(), vp.Core, node, words*8, numa.AccessCache)
	}
	vp.advance(vp.rt.Cfg.AllocFixedNs + c)
	vp.Stats.AllocWords += int64(words)
}

// AllocRaw allocates a raw-data object with the given payload words.
func (vp *VProc) AllocRaw(payload []uint64) heap.Addr {
	vp.safepoint(len(payload))
	a := vp.Local.Bump(heap.MakeHeader(heap.IDRaw, len(payload)))
	copy(vp.rt.Space.Payload(a), payload)
	vp.chargeAllocCost(len(payload) + 1)
	return a
}

// AllocRawN allocates a zeroed raw-data object of n words.
func (vp *VProc) AllocRawN(n int) heap.Addr {
	vp.safepoint(n)
	a := vp.Local.Bump(heap.MakeHeader(heap.IDRaw, n))
	vp.chargeAllocCost(n + 1)
	return a
}

// AllocVector allocates a vector-of-pointers object. The element addresses
// are taken from root slots (not raw addresses) because the safepoint may
// move them.
func (vp *VProc) AllocVector(rootSlots []int) heap.Addr {
	vp.safepoint(len(rootSlots))
	a := vp.Local.Bump(heap.MakeHeader(heap.IDVector, len(rootSlots)))
	p := vp.rt.Space.Payload(a)
	for i, s := range rootSlots {
		p[i] = uint64(vp.roots[s])
	}
	vp.chargeAllocCost(len(rootSlots) + 1)
	return a
}

// AllocVectorN allocates a vector of n nil pointers.
func (vp *VProc) AllocVectorN(n int) heap.Addr {
	vp.safepoint(n)
	a := vp.Local.Bump(heap.MakeHeader(heap.IDVector, n))
	vp.chargeAllocCost(n + 1)
	return a
}

// AllocMixed allocates a mixed-type object with the given descriptor ID.
// rawFields supplies the non-pointer payload; ptrSlots maps payload offsets
// to root slots for the pointer fields.
func (vp *VProc) AllocMixed(id uint16, rawFields map[int]uint64, ptrSlots map[int]int) heap.Addr {
	d := vp.rt.Descs.Lookup(id)
	vp.safepoint(d.SizeWords)
	a := vp.Local.Bump(heap.MakeHeader(id, d.SizeWords))
	p := vp.rt.Space.Payload(a)
	for i, w := range rawFields {
		p[i] = w
	}
	for i, s := range ptrSlots {
		p[i] = uint64(vp.roots[s])
	}
	vp.chargeAllocCost(d.SizeWords + 1)
	return a
}

// --- Field access -------------------------------------------------------

// isOwnLocal reports whether the address lies in this vproc's local heap.
func (vp *VProc) isOwnLocal(a heap.Addr) bool {
	return a.RegionID() == vp.Local.Region.ID
}

// accessKind classifies a load target for the cost model: the vproc's own
// local heap is sized to fit L3 and is charged at cache cost when its pages
// are node-local.
func (vp *VProc) accessKind(a heap.Addr) numa.AccessKind {
	if vp.isOwnLocal(a) {
		return numa.AccessCache
	}
	return numa.AccessMemory
}

// chase resolves forwarding: a mutator may hold a stale pointer to an
// object that was promoted (a forwarding pointer in the local heap). The
// real runtime never observes these because roots are rewritten, but
// workload code holding addresses across promotions uses Resolve.
func (vp *VProc) resolve(a heap.Addr) heap.Addr {
	for a != 0 {
		h := vp.rt.Space.Header(a)
		if heap.IsHeader(h) {
			return a
		}
		a = heap.ForwardTarget(h)
	}
	return a
}

// Resolve follows forwarding pointers to the object's current address.
func (vp *VProc) Resolve(a heap.Addr) heap.Addr { return vp.resolve(a) }

// wordCharge computes the charge of a single-word access to the resolved
// address a. It is the one cost expression behind LoadWord/LoadPtr and
// their Cost* forms, so the two execution styles cannot drift apart.
func (vp *VProc) wordCharge(a heap.Addr) int64 {
	return vp.rt.Machine.AccessCost(vp.Now(), vp.Core, vp.rt.Space.NodeOf(a), 8, vp.accessKind(a))
}

// blockCharge computes the charge of a streaming read of an n-word payload
// at the resolved address a, fused with ns of computation.
func (vp *VProc) blockCharge(a heap.Addr, n int, ns int64) int64 {
	return vp.rt.Machine.AccessCost(vp.Now(), vp.Core, vp.rt.Space.NodeOf(a), n*8, vp.accessKind(a)) + ns
}

// cachedBlockCharge is blockCharge at unconditional cache cost (the
// meterless re-read model of ReadBlockCached).
func (vp *VProc) cachedBlockCharge(n int, ns int64) int64 {
	t := vp.rt.Cfg.Topo
	return int64(t.CacheLat+float64(n*8)/t.CacheBW) + ns
}

// LoadWord reads payload word i of the object at a, charging a
// latency-bound access.
func (vp *VProc) LoadWord(a heap.Addr, i int) uint64 {
	a = vp.resolve(a)
	vp.advance(vp.wordCharge(a))
	return vp.rt.Space.Payload(a)[i]
}

// LoadPtr reads pointer field i of the object at a.
func (vp *VProc) LoadPtr(a heap.Addr, i int) heap.Addr {
	return heap.Addr(vp.LoadWord(a, i))
}

// ReadBlock charges a streaming read of the whole object payload (one
// latency plus bandwidth cost) and returns the payload slice.
//
// The returned slice aliases heap storage: it is invalidated by the
// executing vproc's next allocation (a collection may move the object and
// reuse its words). Copy it out before any allocating call.
func (vp *VProc) ReadBlock(a heap.Addr) []uint64 {
	return vp.ReadBlockCompute(a, 0)
}

// ReadBlockCached is ReadBlock charged at cache cost regardless of where
// the object lives; workloads use it to model re-reads of data that is
// resident in the local cache hierarchy (e.g. the upper levels of the
// Barnes-Hut tree, or a matrix block being reused).
func (vp *VProc) ReadBlockCached(a heap.Addr) []uint64 {
	return vp.ReadBlockCachedCompute(a, 0)
}

// ReadBlockCompute is ReadBlock fused with Compute(ns): the access and the
// computation on the fetched data are charged in a single engine advance.
// Because the caller observes nothing between the two charges, the fusion
// is schedule-identical to ReadBlock followed by Compute — it only removes
// one rescheduling point — but costs half the engine interactions on hot
// read-then-compute loops.
func (vp *VProc) ReadBlockCompute(a heap.Addr, ns int64) []uint64 {
	a = vp.resolve(a)
	n := vp.rt.Space.ObjectLen(a)
	vp.advance(vp.blockCharge(a, n, ns))
	return vp.rt.Space.Payload(a)
}

// ReadBlockCachedCompute is ReadBlockCached fused with Compute(ns), with
// the same single-advance contract as ReadBlockCompute.
func (vp *VProc) ReadBlockCachedCompute(a heap.Addr, ns int64) []uint64 {
	a = vp.resolve(a)
	n := vp.rt.Space.ObjectLen(a)
	vp.advance(vp.cachedBlockCharge(n, ns))
	return vp.rt.Space.Payload(a)
}

// ObjectLen returns the payload length of the object at a.
func (vp *VProc) ObjectLen(a heap.Addr) int { return vp.rt.Space.ObjectLen(vp.resolve(a)) }

// --- Step-kernel access forms -------------------------------------------
//
// The Cost* accessors are the "compute cost, return duration" forms of the
// direct accessors above, for use inside step functions (RunSteps), where
// calling Advance is banned: a step observes the heap and returns the
// duration to charge, and the engine applies it. Each form performs exactly
// the reads and cost-model calls of its direct counterpart — including
// contention-meter mutations, which is why it must be invoked only at the
// virtual instant the charge lands (i.e. from the step that returns it).

// RunSteps drives fn through the engine's inline-step path (see
// vtime.Proc.StepWhile): fn is invoked at every virtual instant this vproc
// is scheduled — possibly on another vproc's goroutine — and returns the
// duration to charge before its next turn, or done. fn must confine itself
// to observing and mutating simulation state; it must not call engine
// scheduling primitives (Compute, the allocators, Promote, channel
// operations, …), all of which advance or block internally.
func (vp *VProc) RunSteps(fn func() (d int64, done bool)) { vp.proc.StepWhile(fn) }

// CostLoadWord is LoadWord in cost form: it resolves a and returns payload
// word i together with the access charge.
func (vp *VProc) CostLoadWord(a heap.Addr, i int) (uint64, int64) {
	a = vp.resolve(a)
	c := vp.wordCharge(a)
	return vp.rt.Space.Payload(a)[i], c
}

// CostLoadPtr is LoadPtr in cost form.
func (vp *VProc) CostLoadPtr(a heap.Addr, i int) (heap.Addr, int64) {
	w, c := vp.CostLoadWord(a, i)
	return heap.Addr(w), c
}

// CostReadBlock is ReadBlockCompute in cost form: it returns the payload
// slice (aliasing heap storage, same caveats as ReadBlock) and the fused
// read+compute charge.
func (vp *VProc) CostReadBlock(a heap.Addr, ns int64) ([]uint64, int64) {
	a = vp.resolve(a)
	n := vp.rt.Space.ObjectLen(a)
	c := vp.blockCharge(a, n, ns)
	return vp.rt.Space.Payload(a), c
}

// CostReadBlockCached is ReadBlockCachedCompute in cost form.
func (vp *VProc) CostReadBlockCached(a heap.Addr, ns int64) ([]uint64, int64) {
	a = vp.resolve(a)
	n := vp.rt.Space.ObjectLen(a)
	c := vp.cachedBlockCharge(n, ns)
	return vp.rt.Space.Payload(a), c
}

// HeaderID returns the object ID of the object at a.
func (vp *VProc) HeaderID(a heap.Addr) uint16 {
	return heap.HeaderID(vp.rt.Space.Header(vp.resolve(a)))
}
