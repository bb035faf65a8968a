// Package core implements the Manticore runtime and its NUMA-aware garbage
// collector: vprocs with private Appel semi-generational local heaps, a
// chunked global heap with node affinity, minor/major/global collection
// phases, object promotion, object proxies, and a work-stealing scheduler
// with lazy promotion. This is the paper's primary contribution (§2-3).
package core

import (
	"fmt"

	"repro/internal/mempage"
	"repro/internal/numa"
)

// Config configures a Runtime. The zero value is not usable; call
// DefaultConfig and adjust.
type Config struct {
	// Topo is the machine model.
	Topo *numa.Topology
	// Policy is the physical page placement policy (§4.3).
	Policy mempage.Policy
	// NumVProcs is the number of virtual processors (§2.2). VProcs are
	// assigned sparsely across nodes when fewer than the core count.
	NumVProcs int

	// LocalHeapWords is the fixed local heap size (§3.1: "chosen so that
	// the local heaps will fit into the L3 cache").
	LocalHeapWords int
	// ChunkWords is the global-heap chunk size.
	ChunkWords int
	// GlobalTriggerWords triggers a global collection when active global
	// chunkage exceeds it (§3.4: #vprocs x 32MB in the paper; scaled
	// here). Zero means NumVProcs * 16 * ChunkWords.
	GlobalTriggerWords int
	// MinNurseryWords triggers a major collection when the post-minor
	// nursery would fall below it (§3.3). Zero means LocalHeapWords/8.
	MinNurseryWords int
	// GlobalBudgetChunks bounds the global heap at that many active
	// chunks. 0 means unbounded — the paper's model, and bit-identical
	// to every pre-budget baseline. With a budget set, mutator
	// allocation gates (TryAlloc*, TryPromote) walk the emergency
	// collection ladder when headroom runs out and report AllocFailed
	// as a status rather than growing the heap; collections themselves
	// always complete by overdrafting.
	GlobalBudgetChunks int
	// VProcChunkBudget bounds any one vproc's share of the global heap
	// (active chunks it owns). 0 means unbounded. Local heaps are
	// fixed-size by construction, so this is the per-vproc analogue of
	// GlobalBudgetChunks: it stops a single hot vproc from promoting
	// the whole budget into its own chunks.
	VProcChunkBudget int
	// EmergencyRetryNs re-arms the emergency ladder after a failed walk:
	// once a full escalation fails to free headroom, TryAlloc* fails
	// fast (no collection) until a global GC runs, the heap grows by two
	// chunks, or this much virtual time passes — bounding the
	// stop-the-world rate under sustained exhaustion at one ladder per
	// interval while still letting the heap recover when survivors die.
	// Zero means 1ms of virtual time. Only consulted when a budget is
	// set.
	EmergencyRetryNs int64

	// LazyPromotion promotes task environments only when stolen (the
	// default, after [Rai10]); disabled, environments are promoted
	// eagerly at spawn time (ablation).
	LazyPromotion bool
	// YoungPartition keeps the just-copied young data out of major
	// collections to avoid premature promotion (§3.3); disabling it is
	// an ablation.
	YoungPartition bool
	// NodeAffineChunks preserves chunk node affinity on reuse (§3.1);
	// disabling it is an ablation.
	NodeAffineChunks bool
	// NodeLocalScan makes global GC scanning prefer node-local chunk
	// lists (§3.4); disabling it uses one shared list (ablation).
	NodeLocalScan bool
	// NoStepKernels forces the direct-style (Advance-based) versions of
	// the step-converted hot loops: the global-GC scan phase, the
	// local-heap root walk, and the workload mutator kernels. The two
	// styles are schedule-identical by the step contract — this ablation
	// exists to prove it (results must match bit-for-bit) and to measure
	// the host-time cost of token handoffs.
	NoStepKernels bool

	// ConcurrentGlobal replaces the stop-the-world global collection with
	// the mostly-concurrent design: a tri-color incremental mark
	// interleaved with mutator steps, bracketed by two short STW windows
	// (root snapshot and mark termination), with a Dijkstra-style
	// insertion write barrier on global-pointer stores and mark assists
	// paced by a GOGC-style trigger. Off (the default), the legacy STW
	// collector runs and every schedule is bit-identical to the
	// pre-concurrent baselines.
	ConcurrentGlobal bool
	// GCPercent is the pacer's heap-growth goal in percent, GOGC-style:
	// the next concurrent cycle aims to finish before the active global
	// heap grows past survived*(1+GCPercent/100) words. 0 means 100.
	// Negative is rejected. Only consulted when ConcurrentGlobal is set;
	// the STW collector keeps its fixed GlobalTriggerWords trigger.
	GCPercent int

	// Debug runs the whole-heap invariant verifier after every
	// collection phase. Slow; for tests.
	Debug bool

	// Model cost constants, in virtual nanoseconds.
	AllocFixedNs      int64 // fixed cost per allocation (bump + init)
	ComputeGrainNs    int64 // reserved for workload use
	StealAttemptNs    int64 // probing a victim deque
	StealHitNs        int64 // CAS to take a task
	PollNs            int64 // idle poll interval
	ChunkSyncLocalNs  int64 // node-local chunk free-list pop
	ChunkSyncGlobalNs int64 // fresh chunk allocation + registration
	SignalVProcNs     int64 // zeroing one vproc's limit pointer
	BarrierNs         int64 // stop-the-world rendezvous
	SpinNs            int64 // heap-busy handshake spin

	// Seed makes randomized workloads deterministic.
	Seed uint64

	// SpanWorkers must be 0 or 1: the engine is serial, and NewRuntime
	// rejects any other value. The field exists only because the
	// host-performance benchmark (perfbench) still sets it to 1; it goes
	// away with the next change to that benchmark.
	SpanWorkers int
}

// DefaultConfig returns a configuration with the paper's defaults at a
// simulation-friendly scale. Local heaps default to a size that fits the
// machine's L3 (scaled down), chunks to 64 KB, and the global trigger to
// NumVProcs x 16 chunks.
func DefaultConfig(topo *numa.Topology, nvprocs int) Config {
	return Config{
		Topo:               topo,
		Policy:             mempage.PolicyLocal,
		NumVProcs:          nvprocs,
		LocalHeapWords:     64 << 10, // 512 KB
		ChunkWords:         16 << 10, // 128 KB
		GlobalTriggerWords: 0,        // derived
		MinNurseryWords:    0,        // derived
		LazyPromotion:      true,
		YoungPartition:     true,
		NodeAffineChunks:   true,
		NodeLocalScan:      true,
		AllocFixedNs:       2,
		StealAttemptNs:     120,
		StealHitNs:         250,
		PollNs:             400,
		ChunkSyncLocalNs:   150,
		ChunkSyncGlobalNs:  900,
		SignalVProcNs:      80,
		BarrierNs:          600,
		SpinNs:             60,
		Seed:               0x9E3779B97F4A7C15,
	}
}

// normalize fills derived defaults and validates.
func (c *Config) normalize() error {
	if c.Topo == nil {
		return fmt.Errorf("core: Config.Topo is nil")
	}
	if c.NumVProcs <= 0 || c.NumVProcs > c.Topo.NumCores() {
		return fmt.Errorf("core: NumVProcs %d out of range [1,%d]", c.NumVProcs, c.Topo.NumCores())
	}
	if c.LocalHeapWords < 1024 {
		return fmt.Errorf("core: LocalHeapWords %d too small (min 1024)", c.LocalHeapWords)
	}
	if c.ChunkWords < 64 {
		return fmt.Errorf("core: ChunkWords %d too small (min 64)", c.ChunkWords)
	}
	if c.MinNurseryWords == 0 {
		c.MinNurseryWords = c.LocalHeapWords / 8
	}
	if c.GlobalTriggerWords == 0 {
		c.GlobalTriggerWords = c.NumVProcs * 16 * c.ChunkWords
	}
	if c.EmergencyRetryNs < 0 {
		return fmt.Errorf("core: EmergencyRetryNs %d negative", c.EmergencyRetryNs)
	}
	if c.EmergencyRetryNs == 0 {
		c.EmergencyRetryNs = 1_000_000
	}
	if c.GlobalBudgetChunks < 0 {
		return fmt.Errorf("core: GlobalBudgetChunks %d negative", c.GlobalBudgetChunks)
	}
	if c.VProcChunkBudget < 0 {
		return fmt.Errorf("core: VProcChunkBudget %d negative", c.VProcChunkBudget)
	}
	if c.SpanWorkers != 0 && c.SpanWorkers != 1 {
		return fmt.Errorf("core: SpanWorkers %d not supported: the span-parallel engine was removed (use 0 or 1)", c.SpanWorkers)
	}
	if c.GCPercent < 0 {
		return fmt.Errorf("core: GCPercent %d negative", c.GCPercent)
	}
	if c.GCPercent == 0 {
		c.GCPercent = 100
	}
	if c.GlobalBudgetChunks > 0 && c.GlobalBudgetChunks < c.NumVProcs {
		// Every vproc must be able to hold at least one global chunk or
		// the first round of promotions already lives in permanent
		// overdraft; reject rather than clamp.
		return fmt.Errorf("core: GlobalBudgetChunks %d below NumVProcs %d", c.GlobalBudgetChunks, c.NumVProcs)
	}
	return nil
}
