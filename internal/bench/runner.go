package bench

import (
	"fmt"
	"reflect"
	"sync"
	"time"
)

// runSweep measures every point of a sweep in place on a pool of workers
// goroutines (at least one). Points are independent deterministic
// simulations, each owning its own core.Runtime, so the virtual results
// are identical for any worker count. For each point, measure does the
// untimed set-up and returns the timed simulation; the runner records that
// call's host wall time in the point's WallNs field. When progress is set,
// the calling goroutine passes it describe's line for each finished point,
// in completion order.
func runSweep[P any](pts []P, workers int, progress func(string), measure func(*P) func(), describe func(*P) string) {
	jobs := make(chan int)
	done := make(chan *P)
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				pt := &pts[i]
				run := measure(pt)
				start := time.Now()
				run()
				*wallNs(pt) = time.Since(start).Nanoseconds()
				done <- pt
			}
		}()
	}
	go func() {
		for i := range pts {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(done)
	}()
	for pt := range done {
		if progress != nil {
			progress(fmt.Sprintf("%s (%s wall)", describe(pt), time.Duration(*wallNs(pt))))
		}
	}
}

// VirtualEq reports whether two sweep points' virtual (deterministic)
// fields are bit-identical. Every field but WallNs is virtual; wall time is
// host noise and excluded.
func VirtualEq[P comparable](a, b P) bool {
	*wallNs(&a), *wallNs(&b) = 0, 0
	return a == b
}

// wallNs addresses a sweep point's WallNs field, the one host-time field
// every point type carries.
func wallNs[P any](pt *P) *int64 {
	return reflect.ValueOf(pt).Elem().FieldByName("WallNs").Addr().Interface().(*int64)
}

// must unwraps a lookup of a name the sweep's point constructor already
// validated (a machine preset, policy, admission or crash kind), so a
// failure is a programming error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
