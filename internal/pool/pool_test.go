package pool

import (
	"runtime"
	"sync"
	"testing"
)

// TestRunEachItemOnce: every item runs exactly once, on a worker in
// range, whatever the worker and item counts.
func TestRunEachItemOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 1}, {1, 7}, {2, 9}, {3, 3}, {4, 2}, {8, 100}, {0, 5},
	} {
		var mu sync.Mutex
		ran := make([]int, tc.n)
		Run(tc.workers, tc.n, func(w, i int) {
			if w < 0 || w >= max(1, tc.workers) {
				t.Errorf("Run(%d, %d): item %d on worker %d", tc.workers, tc.n, i, w)
			}
			mu.Lock()
			ran[i]++
			mu.Unlock()
		})
		for i, c := range ran {
			if c != 1 {
				t.Errorf("Run(%d, %d): item %d ran %d times", tc.workers, tc.n, i, c)
			}
		}
	}
}

// TestRunItemOnItsWorker: with no more items than workers, item i runs
// on worker i.
func TestRunItemOnItsWorker(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 1}, {3, 3}, {4, 2}, {8, 5}} {
		on := make([]int, tc.n)
		Run(tc.workers, tc.n, func(w, i int) { on[i] = w })
		for i, w := range on {
			if w != i {
				t.Errorf("Run(%d, %d): item %d ran on worker %d", tc.workers, tc.n, i, w)
			}
		}
	}
}

// TestRunNoItems: with nothing to do, f is never called.
func TestRunNoItems(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		Run(workers, 0, func(w, i int) {
			t.Errorf("Run(%d, 0) called f(%d, %d)", workers, w, i)
		})
	}
}

// TestWorkers: a count below one means GOMAXPROCS, and no count
// exceeds the item count.
func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ want, n, got int }{
		{0, 1000, min(procs, 1000)},
		{0, 1, 1},
		{-3, 1000, min(procs, 1000)},
		{0, 0, 0},
		{1, 9, 1},
		{4, 9, 4},
		{4, 2, 2},
	} {
		if got := Workers(tc.want, tc.n); got != tc.got {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.want, tc.n, got, tc.got)
		}
	}
}
