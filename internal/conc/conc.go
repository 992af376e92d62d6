// Package conc holds the small concurrency primitive shared by the
// sharded TTI engine and the master's parallel RIB-updater slot.
package conc

import (
	"sync"
	"sync/atomic"
)

// blocksPerWorker sets the claim granularity: ForEach cuts [0, n) into
// about this many contiguous blocks per worker. Blocks amortise the shared
// counter over many cheap calls (a TTI phase over thousands of mostly idle
// nodes), while several blocks per worker still even out uneven loads.
const blocksPerWorker = 16

// ForEach runs fn(i) for every i in [0, n), fanning the indices out
// across up to workers goroutines, and returns only when every call has
// finished (the phase barrier the TTI engine relies on). Workers claim
// contiguous blocks of indices off a shared counter; the block size is
// n/(workers*blocksPerWorker), at least 1, so with fewer than
// 2*blocksPerWorker indices per worker every claim is a single index.
// With workers <= 1 it runs inline on the caller.
func ForEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	block := max(n/(workers*blocksPerWorker), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				end := int(next.Add(int64(block)))
				if end-block >= n {
					return
				}
				for i := end - block; i < min(end, n); i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
