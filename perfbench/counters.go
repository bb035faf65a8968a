package main

import (
	"repro/internal/core"
	"repro/internal/numa"
)

// counters are one run's deterministic work counts, read through the
// runtime's public accessors after the run. A host-only change must not
// move them.
type counters [nCounters]int64

const (
	cTasks = iota
	cSteals
	cFailedSteals
	cAccesses
	cPathBytes // modelled memory traffic over every path
	cRemoteBytes
	cFarBytes
	cAllocWords
	cChunks
	cMinor
	cMajor
	cPromotions
	cGlobal
	cCopiedWords
	cLocalNs
	cGlobalNs
	cSTWNs
	cBarrierHits
	cAssistWords
	cChanSends
	cChanHandoffs
	cChanSheds
	cTimersFired
	cFaultsInjected
	cEmergencyGCs
	cAllocFailed
	cLostWork
	cEvents   // first of core.NumEventKinds per-kind GC event counts
	nCounters = cEvents + core.NumEventKinds
)

// workOf reads a finished run's counters; events are the tracer's per-kind
// counts (all zero when no tracer ran).
func workOf(rt *core.Runtime, events [core.NumEventKinds]int64) counters {
	t := rt.TotalStats()
	traffic := rt.Machine.Stats()
	mp := rt.MemPressure()
	var c counters
	c[cTasks] = t.TasksRun
	c[cSteals] = t.Steals
	c[cFailedSteals] = t.FailedSteals
	c[cAccesses] = int64(traffic.Accesses)
	for _, b := range traffic.BytesByPath {
		c[cPathBytes] += int64(b)
	}
	c[cRemoteBytes] = int64(traffic.BytesByPath[numa.PathRemote] + traffic.BytesByPath[numa.PathFar])
	c[cFarBytes] = int64(traffic.BytesByPath[numa.PathFar])
	c[cAllocWords] = t.AllocWords
	c[cChunks] = t.ChunksRequested
	c[cMinor] = int64(t.MinorGCs)
	c[cMajor] = int64(t.MajorGCs)
	c[cPromotions] = int64(t.Promotions)
	c[cGlobal] = int64(rt.Stats.GlobalGCs)
	c[cCopiedWords] = t.MinorCopied + t.MajorCopied + t.PromotedWords + rt.Stats.GlobalCopied
	c[cLocalNs] = t.GCNs
	c[cGlobalNs] = rt.Stats.GlobalNs
	// The stop-the-world collector stops the world for the whole global
	// collection; the concurrent one only for its two windows.
	c[cSTWNs] = rt.Stats.GlobalNs
	if rt.Cfg.ConcurrentGlobal {
		c[cSTWNs] = rt.Stats.SnapshotNs + rt.Stats.TermNs
	}
	c[cBarrierHits] = t.BarrierHits
	c[cAssistWords] = t.MarkAssistWords
	c[cChanSends] = t.ChanSends
	c[cChanHandoffs] = t.ChanHandoffs
	c[cChanSheds] = t.ChanSheds
	c[cTimersFired] = t.TimersFired
	c[cFaultsInjected] = t.FaultsInjected
	c[cEmergencyGCs] = mp.EmergencyGCs
	c[cAllocFailed] = mp.AllocFailed
	c[cLostWork] = t.LostTasks + t.LostConts + t.LostTimers
	copy(c[cEvents:], events[:])
	return c
}

func (c *counters) clearEvents() {
	clear(c[cEvents:])
}

func (c counters) events() int64 {
	var n int64
	for _, e := range c[cEvents:] {
		n += e
	}
	return n
}

// simEvents counts the simulated events a pass's host time is spread
// over: tasks run, steal attempts, GC events, channel sends and timers
// fired.
func (c counters) simEvents() int64 {
	return c[cTasks] + c[cSteals] + c[cFailedSteals] + c.events() + c[cChanSends] + c[cTimersFired]
}

// sum adds every record's counters.
func sum(recs []record) counters {
	var c counters
	for _, r := range recs {
		for i, v := range r.work {
			c[i] += v
		}
	}
	return c
}
