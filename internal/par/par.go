// Package par provides the bounded-concurrency loop the experiment
// runners are built on: ForEach runs index-parallel tasks on a limited
// worker pool with first-error cancellation and deterministic result
// placement.
//
// The cancellation model matches the co-simulation use case: every task
// is independent (one workload run), so "cancel" means "skip tasks that
// have not started yet" — a task already running is allowed to finish.
// The first error wins and is the one ForEach returns; panics inside
// tasks are captured and re-raised on the goroutine that called
// ForEach, so a crashing workload takes down the experiment, not a bare
// worker.
package par

import (
	"fmt"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) with at most limit workers
// (limit <= 0 selects GOMAXPROCS) and returns the first error. Once a
// task fails or panics, no further task starts; a panic is re-raised
// here, ahead of any error. Callers get deterministic result ordering
// by writing fn results into slot i of a pre-sized slice.
func ForEach(limit, n int, fn func(i int) error) error {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	// A serial loop needs no goroutines — and keeps single-threaded
	// callers trivially race-free.
	if limit == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int // the next index to start
		err      error
		panicked any
	)
	// claim returns the next index to run, or false once every index
	// has started or a task has failed.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == n || err != nil || panicked != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
			}
		}()
		if e := fn(i); e != nil {
			mu.Lock()
			if err == nil {
				err = e
			}
			mu.Unlock()
		}
	}
	for w := 0; w < min(limit, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				run(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("par: task panicked: %v", panicked))
	}
	return err
}
