package workload

import "repro/internal/core"

// The three open-loop serving harnesses (latency.go, overload.go,
// failover.go) keep their own state machines, which produce different
// schedules, but share everything they draw and fold the same way: the
// arrival plan, the request payload, the retry backoff, and the
// checksum/percentile tail.

// arrivalPlan is a serving run's offered load, drawn up front from seeded
// per-client streams: client c's request r arrives at arrival[c][r] and
// carries words[c][r] payload words. The plan is a pure function of (seed,
// clients, requests, mean gap), independent of anything the runtime does —
// the open-loop contract — so harnesses with equal options offer identical
// traffic.
type arrivalPlan struct {
	seed    uint64
	arrival [][]int64 // scheduled arrival instants, increasing per client
	words   [][]int   // payload words; a large-lane request has >= srvLargeMin
	window  int64     // the last scheduled arrival
}

// latClientSeed derives the per-client arrival/shape stream seed.
func latClientSeed(seed uint64, c int) uint64 {
	return seed ^ uint64(c+1)*0xBF58476D1CE4E5B9
}

// latReqSeed derives the per-request payload stream seed, so a request's
// contents can be regenerated at send time without replaying the client
// stream.
func latReqSeed(seed uint64, c, r int) uint64 {
	return fnv1a(fnv1a(seed, uint64(c)), uint64(r)) | 1
}

// planArrivals draws every arrival instant and request shape: per request,
// one gap draw, then the shape draws of srvRequestShape.
func planArrivals(seed uint64, clients, requests int, meanGapNs int64) arrivalPlan {
	p := arrivalPlan{seed: seed, arrival: make([][]int64, clients), words: make([][]int, clients)}
	for c := range p.arrival {
		rng := newRand(latClientSeed(seed, c))
		p.arrival[c] = make([]int64, requests)
		p.words[c] = make([]int, requests)
		var t int64
		for r := 0; r < requests; r++ {
			// Uniform jitter in [mean/2, 3*mean/2): a deterministic
			// integer-only arrival process with the configured mean.
			t += meanGapNs/2 + int64(rng.next()%uint64(meanGapNs))
			p.arrival[c][r] = t
			_, p.words[c][r] = srvRequestShape(rng)
		}
		p.window = max(p.window, t)
	}
	return p
}

// payload allocates request (c, r)'s buffer: [client, seq, hdr-2 words the
// caller fills, noise...]. The noise comes from the request's own seeded
// stream, so every attempt, retry and hedge of a request carries identical
// contents.
func (p *arrivalPlan) payload(c, r, hdr int) []uint64 {
	words := p.words[c][r]
	buf := make([]uint64, words)
	buf[0], buf[1] = uint64(c), uint64(r)
	rng := newRand(latReqSeed(p.seed, c, r))
	for i := hdr; i < words; i++ {
		buf[i] = rng.next()
	}
	return buf
}

// backoff is the delay before request (c, r)'s retry attempt (attempt >=
// 1): the exponential base baseNs << (attempt-1), capped at capNs and
// computed without overflow, then jittered into [base/2, 3*base/2) from a
// per-(request, attempt) seeded stream — random enough to de-synchronize
// retry herds, deterministic enough to replay bit-identically.
func (p *arrivalPlan) backoff(c, r, attempt int, baseNs, capNs int64) int64 {
	base := capNs
	if shift := uint(attempt - 1); shift < 63 && baseNs <= capNs>>shift {
		base = baseNs << shift
	}
	j := newRand(fnv1a(latReqSeed(p.seed, c, r), uint64(attempt)) | 1)
	return base/2 + int64(j.next()%uint64(base))
}

// servingTail is every serving harness's epilogue: the per-client
// resolution folds combine, in client order, into the run's checksum, and
// the completed-request histogram yields its p50 and p99.
func servingTail(rt *core.Runtime, elapsed int64, acc []uint64, h *Hist) (res Result, p50, p99 int64) {
	var check uint64
	for _, a := range acc {
		check = fnv1a(check, a)
	}
	res = Result{ElapsedNs: elapsed, Check: check, Stats: rt.TotalStats()}
	return res, h.Quantile(50, 100), h.Quantile(99, 100)
}

// newChannels makes n channels: one reply channel per client.
func newChannels(rt *core.Runtime, n int) []*core.Channel {
	chs := make([]*core.Channel, n)
	for i := range chs {
		chs[i] = rt.NewChannel()
	}
	return chs
}
