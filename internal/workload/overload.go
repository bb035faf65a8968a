package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
)

// Overload harness: the open-loop latency harness pushed through and past
// saturation, with the robustness layer the plain harness deliberately
// lacks. Requests arrive on a planned schedule (same open-loop contract as
// latency.go) but flow through a *bounded* request lane; when the lane is
// full the configured admission policy decides what gives — block nothing
// and queue forever (AdmitNone, the unbounded baseline), shed at admission
// with client-side retry/backoff (AdmitQueue), or additionally drop
// requests server-side once their deadline is unmeetable (AdmitDeadline).
// Every request resolves exactly once — completed, expired (server nack),
// shed at admission, shed by a fault-plan close, or shed by memory
// pressure (AdmitMemory's watermark gate, or AllocFailed on a bounded
// heap) — so goodput, shed, and retry counts always account for the full
// offered load.
//
// Determinism: arrivals, payloads, and retry jitter are drawn from seeded
// per-client/per-request streams (openloop.go); all bookkeeping mutates in
// engine-serialized task code. Two runs with the same options are
// bit-identical at any host worker count. Unlike the throughput and latency
// checksums, the overload checksum is NOT vproc-count-invariant: whether a
// given request is shed depends on queue depth at its arrival instant,
// which is schedule-dependent — the invariant is rerun equality, not
// topology equality.
//
// Termination: the server pool cannot use fixed quotas (how many requests
// reach a server depends on the policy and the schedule), so shutdown rides
// the close-as-status channel semantics: the last resolution closes the
// request lane, waking every parked server continuation with a nil message.
// At that instant no server is mid-request (a request being served is
// unresolved) and no client continuation is pending (every request already
// resolved), so the runtime quiesces.
const (
	ovClients  = 300 // logical clients at scale 1
	ovRequests = 6   // requests per client at scale 1

	ovMeanGapNs  = 400_000 // default per-client inter-arrival gap
	ovSLONs      = 250_000 // default deadline, measured from scheduled arrival
	ovMailboxCap = 16      // default bounded-lane depth
	ovMaxRetries = 3       // default retry budget after the first attempt
	ovRetryBase  = 10_000  // default first-retry backoff
	ovRetryCap   = 80_000  // default backoff cap

	// ovServiceNsPerWord is the default per-word service compute. It is
	// deliberately heavier than the closed-loop server's 6 ns/word: the
	// admission policies only differentiate when service time dominates
	// messaging cost, so a deadline nack (3 header words + a 3-word reply)
	// saves real capacity relative to serving a doomed request in full. At
	// 300 ns/word (mean request ~28 words) a 16-vproc pool saturates near
	// 1.9 requests/us, inside the default sweep's load ladder.
	ovServiceNsPerWord = 300
)

// AdmissionPolicy selects the overload-control strategy.
type AdmissionPolicy int

const (
	// AdmitNone is the no-control baseline: an unbounded request lane,
	// no shedding, no retries. Past saturation the queue grows without
	// bound and SLO attainment collapses, but every request completes.
	AdmitNone AdmissionPolicy = iota
	// AdmitQueue bounds the request lane: a full lane sheds at admission
	// (TrySend reports SendFull) and the client retries with capped
	// exponential backoff + seeded jitter, giving up after MaxRetries.
	AdmitQueue
	// AdmitDeadline is AdmitQueue plus server-side deadline awareness: a
	// server that cannot finish a request before its deadline nacks it
	// cheaply instead of wasting service time on a guaranteed SLO miss.
	AdmitDeadline
	// AdmitMemory is AdmitQueue plus memory-aware admission: when the
	// runtime's heap-occupancy signal (core.Runtime.MemPressure) crosses
	// MemHighPct of the chunk budget, new requests are shed at admission
	// — immediately, with no retries, relieving allocation pressure
	// before the emergency collection ladder has to engage — and
	// admission reopens once occupancy falls below MemLowPct (hysteresis,
	// so the gate does not flap at the watermark). With no budget
	// configured the gate is inert and the policy behaves as AdmitQueue.
	AdmitMemory
)

// String names the policy (the CLI flag vocabulary).
func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitNone:
		return "none"
	case AdmitQueue:
		return "queue"
	case AdmitDeadline:
		return "deadline"
	case AdmitMemory:
		return "memory"
	}
	return fmt.Sprintf("AdmissionPolicy(%d)", int(p))
}

// ParseAdmission parses a policy name.
func ParseAdmission(s string) (AdmissionPolicy, error) {
	switch s {
	case "none":
		return AdmitNone, nil
	case "queue":
		return AdmitQueue, nil
	case "deadline":
		return AdmitDeadline, nil
	case "memory":
		return AdmitMemory, nil
	}
	return 0, fmt.Errorf("workload: unknown admission policy %q (none, queue, deadline, memory)", s)
}

// OverloadOptions configures the harness.
type OverloadOptions struct {
	Clients   int   // logical clients
	Requests  int   // requests per client
	MeanGapNs int64 // mean per-client inter-arrival gap (offered-load knob)
	SLONs     int64 // per-request deadline, from scheduled arrival

	Admission  AdmissionPolicy
	MailboxCap int // bounded-lane depth (AdmitQueue/AdmitDeadline)

	MaxRetries  int   // retry budget after the first attempt
	RetryBaseNs int64 // first retry backoff (doubles per attempt)
	RetryCapNs  int64 // backoff cap

	// ServiceNsPerWord is the server-side compute per payload word — the
	// saturation knob: capacity ≈ vprocs / (mean words × this).
	ServiceNsPerWord int64

	// MemHighPct and MemLowPct are AdmitMemory's hysteresis watermarks,
	// as percentages of the heap's chunk budget: admission closes when
	// occupancy reaches MemHighPct and reopens when it falls below
	// MemLowPct. Ignored by the other policies and when no budget is
	// configured.
	MemHighPct int
	MemLowPct  int

	// Faults, when non-nil, is installed before the run (stalls, bursts,
	// closes — see core.FaultPlan). A close of the request lane makes every
	// later admission attempt resolve as ShedFault. Caveat: a close must not
	// drop *accepted* requests — a request already queued in the lane when
	// the close discards it has a reply handler parked forever and the run
	// will not quiesce. Close the lane before the first arrival (everything
	// sheds), or close other channels; mid-run lane closes are exercised by
	// the core-level close-under-load tests, whose accounting is built for
	// them.
	Faults *core.FaultPlan

	// LaneCloseNs, when positive, schedules a fault-plan close of the
	// request lane itself at that virtual instant — the lane is created
	// inside RunOverload, so callers cannot put it in Faults directly.
	// The same caveat applies: the instant must precede the first possible
	// arrival (MeanGapNs/2) so no accepted request is dropped.
	LaneCloseNs int64
}

// DefaultOverloadOptions scales the default shape.
func DefaultOverloadOptions(scale float64) OverloadOptions {
	return OverloadOptions{
		Clients:          scaled(ovClients, scale),
		Requests:         scaled(ovRequests, scale),
		MeanGapNs:        ovMeanGapNs,
		SLONs:            ovSLONs,
		Admission:        AdmitQueue,
		MailboxCap:       ovMailboxCap,
		MaxRetries:       ovMaxRetries,
		RetryBaseNs:      ovRetryBase,
		RetryCapNs:       ovRetryCap,
		ServiceNsPerWord: ovServiceNsPerWord,
		MemHighPct:       90,
		MemLowPct:        70,
	}
}

// OverloadResult is one harness execution. Offered always equals Completed
// + Expired + ShedAdmission + ShedFault.
type OverloadResult struct {
	Result // makespan, checksum (rerun-stable), runtime stats

	Offered       int   // planned requests
	Completed     int   // served with a real reply
	GoodSLO       int   // completed within SLONs of the scheduled arrival
	Expired       int   // nacked server-side (deadline unmeetable)
	ShedAdmission int   // given up after exhausting the retry budget
	ShedFault     int   // lost to a fault-plan channel close
	ShedMemory    int   // shed by the memory gate or an AllocFailed request buffer
	Retries       int64 // re-attempts after SendFull

	// WindowNs is the planned arrival horizon (the last scheduled
	// arrival): offered rate = Offered / WindowNs. Goodput rate uses the
	// actual makespan: GoodSLO / ElapsedNs.
	WindowNs int64

	Hist     Hist // completed-request latencies from scheduled arrival
	P50, P99 int64
}

// Checksum outcome tags: distinct fnv1a seeds per resolution kind, so the
// per-client folds capture which requests completed, expired, or shed — the
// value the rerun-equality gate actually compares.
const (
	ovTagExpired = 0x9E
	ovTagShed    = 0x5E
	ovTagFault   = 0xFA
	ovTagMemory  = 0x3A
)

// ovState is the harness's host-side bookkeeping; all mutation happens in
// engine-serialized task code.
type ovState struct {
	arrivalPlan
	opt OverloadOptions
	acc []uint64 // per-client commutative resolution fold

	lane    *core.Channel
	replies []*core.Channel

	unresolved    int
	completed     int
	goodSLO       int
	expired       int
	shedAdmission int
	shedFault     int
	shedMemory    int
	retries       int64
	hist          Hist

	// memShedding is AdmitMemory's hysteresis state: true while the
	// occupancy signal sits between the watermarks on the way down.
	// Mutated only in engine-serialized task code.
	memShedding bool
}

// deadline is request (c, r)'s absolute deadline.
func (st *ovState) deadline(c, r int) int64 {
	return st.arrival[c][r] + st.opt.SLONs
}

// resolve retires one request; the last resolution shuts the server pool
// down by closing the request lane (see the termination note above).
func (st *ovState) resolve() {
	st.unresolved--
	if st.unresolved == 0 {
		st.lane.Close()
	}
}

// ovArm schedules client c's request r at its planned arrival and chains
// the next: open-loop, the chain uses planned absolute instants, so a
// stalled runtime does not slow the offered load down.
func ovArm(vp *core.VProc, st *ovState, c, r int) {
	if r == st.opt.Requests {
		return
	}
	vp.AtThen(st.arrival[c][r], nil, func(vp *core.VProc, _ core.Env) {
		ovAttempt(vp, st, c, r, 0)
		ovArm(vp, st, c, r+1)
	})
}

// memGateClosed evaluates AdmitMemory's watermark gate against the
// runtime's occupancy signal, advancing the hysteresis state: closed at
// MemHighPct of the budget, reopened below MemLowPct. Inert (always open)
// when the heap is unbounded. Runs in engine-serialized task code, so the
// state transitions are deterministic.
func (st *ovState) memGateClosed(vp *core.VProc) bool {
	mp := vp.Runtime().MemPressure()
	if mp.BudgetChunks <= 0 {
		return false
	}
	occ := mp.ActiveChunks * 100
	if st.memShedding {
		if occ < st.opt.MemLowPct*mp.BudgetChunks {
			st.memShedding = false
		}
	} else if occ >= st.opt.MemHighPct*mp.BudgetChunks {
		st.memShedding = true
	}
	return st.memShedding
}

// ovAttempt makes one admission attempt for request (c, r). Payload layout:
// [client, seq, deadline, noise...] — the deadline travels with the request
// so the server's drop decision needs no host-side side channel.
//
// Two memory-pressure outcomes resolve a request as ShedMemory, both
// immediate (no retry — retrying into a full heap only deepens the
// pressure): AdmitMemory's watermark gate is closed, or the request
// buffer's TryAllocRaw reports AllocFailed after the emergency collection
// ladder (any policy, once a heap budget is configured). With no budget
// both paths are unreachable and the attempt is schedule-identical to the
// pre-budget harness.
func ovAttempt(vp *core.VProc, st *ovState, c, r, attempt int) {
	if st.opt.Admission == AdmitMemory && st.memGateClosed(vp) {
		st.shedMemory++
		st.acc[c] += fnv1a(fnv1a(ovTagMemory, uint64(r)), uint64(attempt))
		st.resolve()
		return
	}
	buf := st.payload(c, r, 3)
	buf[2] = uint64(st.deadline(c, r))
	a, ast := vp.TryAllocRaw(buf)
	if ast != core.AllocOK {
		st.shedMemory++
		st.acc[c] += fnv1a(fnv1a(ovTagMemory, uint64(r)), uint64(attempt)|0x100)
		st.resolve()
		return
	}
	s := vp.PushRoot(a)
	status := st.lane.TrySend(vp, s)
	vp.PopRoots(1)
	switch status {
	case core.SendOK:
		ovAwaitReply(vp, st, c)
	case core.SendFull:
		next := attempt + 1
		if next > st.opt.MaxRetries {
			st.shedAdmission++
			st.acc[c] += fnv1a(fnv1a(ovTagShed, uint64(r)), uint64(attempt))
			st.resolve()
			return
		}
		st.retries++
		vp.AfterThen(st.backoff(c, r, next, st.opt.RetryBaseNs, st.opt.RetryCapNs), nil, func(vp *core.VProc, _ core.Env) {
			ovAttempt(vp, st, c, r, next)
		})
	case core.SendClosed:
		st.shedFault++
		st.acc[c] += fnv1a(fnv1a(ovTagFault, uint64(r)), 0)
		st.resolve()
	}
}

// ovAwaitReply parks one reply handler for client c. Replies carry the
// request seq, so concurrent in-flight requests of one client may resolve
// through any of its parked handlers.
func ovAwaitReply(vp *core.VProc, st *ovState, c int) {
	st.replies[c].RecvThen(vp, nil, func(vp *core.VProc, _ core.Env, msg heap.Addr) {
		p := vp.ReadBlock(msg)
		seq, sum, nacked := p[0], p[1], p[2]
		if nacked != 0 {
			st.expired++
			st.acc[c] += fnv1a(fnv1a(ovTagExpired, seq), 1)
		} else {
			lat := vp.Now() - st.arrival[c][seq]
			st.hist.Record(lat)
			st.completed++
			if lat <= st.opt.SLONs {
				st.goodSLO++
			}
			st.acc[c] += fnv1a(fnv1a(0, seq), sum)
		}
		st.resolve()
	})
}

// RunOverload executes the harness: a load sweep point's inner loop. The
// virtual results are deterministic — bit-identical across reruns at any
// host-side worker count.
func RunOverload(rt *core.Runtime, opt OverloadOptions) OverloadResult {
	if opt.Clients < 1 || opt.Requests < 1 || opt.MeanGapNs < 2 || opt.SLONs < 1 {
		panic(fmt.Sprintf("workload: bad overload options %+v", opt))
	}
	if opt.Admission != AdmitNone && opt.MailboxCap < 1 {
		panic(fmt.Sprintf("workload: admission %v needs MailboxCap >= 1", opt.Admission))
	}
	if opt.MaxRetries < 0 || (opt.MaxRetries > 0 && (opt.RetryBaseNs < 2 || opt.RetryCapNs < opt.RetryBaseNs)) {
		panic(fmt.Sprintf("workload: bad retry options %+v", opt))
	}
	if opt.ServiceNsPerWord < 1 {
		panic(fmt.Sprintf("workload: ServiceNsPerWord %d must be >= 1", opt.ServiceNsPerWord))
	}
	if opt.Admission == AdmitMemory &&
		(opt.MemLowPct < 1 || opt.MemLowPct >= opt.MemHighPct || opt.MemHighPct > 100) {
		panic(fmt.Sprintf("workload: AdmitMemory needs 1 <= MemLowPct < MemHighPct <= 100, got %d/%d",
			opt.MemLowPct, opt.MemHighPct))
	}
	if opt.LaneCloseNs >= opt.MeanGapNs/2 && opt.LaneCloseNs > 0 {
		// The earliest possible arrival is the minimum gap draw; a later
		// close could drop accepted requests (see the Faults caveat).
		panic(fmt.Sprintf("workload: LaneCloseNs %d not before the earliest possible arrival %d", opt.LaneCloseNs, opt.MeanGapNs/2))
	}

	st := &ovState{
		arrivalPlan: planArrivals(rt.Cfg.Seed, opt.Clients, opt.Requests, opt.MeanGapNs),
		opt:         opt,
		acc:         make([]uint64, opt.Clients),
		unresolved:  opt.Clients * opt.Requests,
	}
	if opt.Admission == AdmitNone {
		st.lane = rt.NewChannel()
	} else {
		st.lane = rt.NewMailbox(opt.MailboxCap)
	}
	st.replies = newChannels(rt, opt.Clients)
	faults := opt.Faults
	if opt.LaneCloseNs > 0 {
		// Copy the caller's plan before extending it: InstallFaults arms
		// pointers into the event slice, and the caller may reuse the plan
		// for another run.
		var events []core.FaultEvent
		if faults != nil {
			events = append(events, faults.Events...)
		}
		faults = &core.FaultPlan{Events: events}
		faults.CloseAt(0, opt.LaneCloseNs, st.lane)
	}
	if faults != nil {
		rt.InstallFaults(faults)
	}

	servers := rt.Cfg.NumVProcs
	elapsed := rt.Run(func(vp *core.VProc) {
		for s := 0; s < servers; s++ {
			vp.Spawn(func(svp *core.VProc, _ core.Env) {
				ovServe(svp, st)
			})
		}
		for c := 0; c < opt.Clients; c++ {
			vp.Spawn(func(cvp *core.VProc, _ core.Env) {
				ovArm(cvp, st, c, 0)
			})
		}
	})

	res := OverloadResult{
		Offered:       opt.Clients * opt.Requests,
		Completed:     st.completed,
		GoodSLO:       st.goodSLO,
		Expired:       st.expired,
		ShedAdmission: st.shedAdmission,
		ShedFault:     st.shedFault,
		ShedMemory:    st.shedMemory,
		Retries:       st.retries,
		WindowNs:      st.window,
		Hist:          st.hist,
	}
	res.Result, res.P50, res.P99 = servingTail(rt, elapsed, st.acc, &res.Hist)
	if got := res.Completed + res.Expired + res.ShedAdmission + res.ShedFault + res.ShedMemory; got != res.Offered {
		panic(fmt.Sprintf("workload: overload accounting leak: %d resolved of %d offered", got, res.Offered))
	}
	return res
}
