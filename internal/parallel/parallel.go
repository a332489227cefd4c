// Package parallel provides the goroutine-parallel execution primitives the
// simulator uses: a parallel-for over index ranges, the round-level worker
// count convention, and deterministic child-seed derivation (so that
// parallel randomized runs remain reproducible from a single seed
// regardless of scheduling).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// StepperWorkers normalizes a stepper's round-level Workers field: any
// value below 1 — in particular the zero value of a stepper constructed
// without an explicit worker count — selects the serial path. Round-level
// parallelism is an explicit opt-in, unlike the pool-level convention where
// 0 means GOMAXPROCS: a stepper embedded in a unit-parallel sweep must not
// silently oversubscribe the machine just because nobody set the field.
func StepperWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// For runs body(i) for every i in [0, n) across at most workers goroutines,
// blocking until all iterations complete. workers ≤ 0 selects GOMAXPROCS.
// Iterations are distributed in contiguous blocks to keep cache locality on
// the load vectors.
func For(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	block := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForDynamic runs body(i) for every i in [0, n) across at most workers
// goroutines, handing out indices one at a time from a shared counter.
// Unlike For's contiguous blocks, this keeps all workers busy when
// iteration costs are wildly uneven (e.g. batch run units whose simulated
// rounds differ by orders of magnitude). workers ≤ 0 selects GOMAXPROCS.
func ForDynamic(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}
