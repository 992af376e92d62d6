package conc

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 100} {
		const n = 57
		var seen [n]atomic.Int32
		ForEach(workers, n, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestForEachBlockBoundaries checks exactly-once coverage on both sides of
// the claim-size steps, which fall on multiples of th: n < 2*th claims
// single indices, n = 2*th is the first claimed in blocks of two.
func TestForEachBlockBoundaries(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		th := workers * blocksPerWorker
		for _, n := range []int{0, 1, th - 1, th, th + 1, 2*th - 1, 2 * th, 2*th + 1, 4095, 4096, 4097} {
			seen := make([]atomic.Int32, n)
			ForEach(workers, n, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
}

func TestForEachIsBarrier(t *testing.T) {
	var done atomic.Int32
	ForEach(8, 200, func(int) { done.Add(1) })
	if done.Load() != 200 {
		t.Fatalf("ForEach returned before all work finished: %d/200", done.Load())
	}
}

// TestForEachIsBarrierLarge repeats the barrier check where claims are
// multi-index blocks, with calls that yield so an early return would be
// observable.
func TestForEachIsBarrierLarge(t *testing.T) {
	const n = 1 << 16
	var done atomic.Int32
	ForEach(8, n, func(i int) {
		if i%1024 == 0 {
			runtime.Gosched()
		}
		done.Add(1)
	})
	if got := done.Load(); got != n {
		t.Fatalf("ForEach returned before all work finished: %d/%d", got, n)
	}
}
