// Package destest is test support for simulations, for tests alone: the
// check that a run left no goroutine behind, EmptyFreeList, and the
// differential harness (diff.go) that holds a layer's new form to the old
// form it replaced: a Form plays one scenario into a Transcript, Play
// stops it at a horizon and resumes it, a Pair compares the two forms'
// lines and handoffs, and Sweep and Fuzz draw the scenarios. It does not
// import des, whose own tests use it: a simulation is reached as a Kernel.
package destest

import (
	"runtime"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/lists"
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

// EmptyFreeList runs a test on the process's list l emptied and gives l
// its storage back after. Not for parallel tests.
func EmptyFreeList[T any](t testing.TB, l *lists.Free[T]) {
	l.Mu.Lock()
	saved := l.Items
	l.Items = nil
	l.Mu.Unlock()
	t.Cleanup(func() {
		l.Mu.Lock()
		l.Items = saved
		l.Mu.Unlock()
	})
}
