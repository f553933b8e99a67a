// Package pool runs independent work items on a fixed set of worker
// goroutines. It is the one worker pool of the repository: suite
// preparation, the experiment sections' per-program builds, the sweep
// engine's trace passes and the search portfolio's climbs all run on
// it, with one worker count, GOMAXPROCS, which the commands' -workers
// flag sets.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the worker count for n items: want when it is at
// least one, GOMAXPROCS otherwise, and never more than n.
func Workers(want, n int) int {
	if want < 1 {
		want = runtime.GOMAXPROCS(0)
	}
	return min(want, n)
}

// Run calls f(w, i) once for every item i in [0, n), w naming the
// worker goroutine that makes the call. Worker w runs item w first,
// then claims the lowest item no worker has claimed, so items are
// handed out as workers free up, and with n <= workers item i runs on
// worker i. A workers count below one runs as one. Run returns when
// every call has returned.
func Run(workers, n int, f func(w, i int)) {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	next.Store(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i = int(next.Add(1)) - 1 {
				f(w, i)
			}
		}()
	}
	wg.Wait()
}
