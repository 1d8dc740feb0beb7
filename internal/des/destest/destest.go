// Package destest holds the check every test that runs a simulation
// can make from outside package des: the run left no goroutine behind.
package destest

import (
	"runtime"
	"testing"
	"time"
)

// NoLeakedGoroutines records the goroutine count and returns a
// function that fails t unless the count is back at (or below) that
// value. Call it before the first Spawn and call the result after Run
// or RunUntil has returned, by whatever path: a process goroutine that
// outlives its run is a leak. A goroutine that has been told to exit
// is still counted until it has finished exiting, so the check yields
// for a while before it gives up. Not for parallel tests.
func NoLeakedGoroutines(t testing.TB) (check func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for n > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Errorf("%d goroutine(s) leaked: %d before the simulation, %d after", n-before, before, n)
		}
	}
}
