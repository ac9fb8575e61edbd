// Package par provides the repository's bounded, determinism-preserving
// fan-out primitive. Every parallel sweep in the experiment engine — the
// per-experiment worker pool, the heavy drivers' age/size/parameter sweeps,
// and core's bootstrap example collection — and the serving layer's
// per-chip fleet construction run through ForEach so the concurrency
// discipline lives in one place:
//
//   - index-sharded writes: the caller's fn(i) must write only its own
//     shard out[i] of any pre-sized result slice, never shared accumulators,
//     so results are identical for every worker count (including 1) and the
//     whole sweep is race-clean by construction;
//   - no shared RNG: any randomness inside fn must come from a fresh
//     internal/rng stream labelled by the item (rng.NewFromString / Fork),
//     never from a Source captured across items — stream decorrelation is
//     what makes draws independent of scheduling;
//   - deterministic errors: ForEach always reports the failure with the
//     smallest index, which is exactly the error the sequential loop would
//     have stopped on (every smaller index succeeded), so the surfaced
//     error does not depend on goroutine interleaving.
//
// Reductions (sums, maxima, map merges) are performed by the caller after
// ForEach returns, iterating shards in index order, so floating-point
// rounding matches the sequential loop bit for bit.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: n if positive, otherwise
// GOMAXPROCS (the engine's default pool size).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS). It returns only after every fn call has
// finished. If any calls fail, the error of the smallest failing index is
// returned; because the items at smaller indexes all succeeded, this is the
// same error a sequential in-order loop would surface. With more than one
// worker every item runs even after a failure (the caller discards the
// shards on error anyway); the single-worker path keeps the sequential
// loop's early exit, which returns the identical error.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		next     int
		firstIdx = n
		firstErr error
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Each is ForEach for infallible bodies: fn(i) runs for every i in [0, n)
// on at most workers goroutines, with the same sharding discipline.
func Each(workers, n int, fn func(i int)) {
	_ = ForEach(workers, n, func(i int) error { // body cannot fail
		fn(i)
		return nil
	})
}
