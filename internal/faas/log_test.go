package faas

import (
	"runtime"
	"testing"

	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// The replays below keep what they allocate here, on the heap, as the
// log keeps its own.
var (
	listSink  [][]Activation
	chunkSink []Activation
)

// allocated returns the mallocs and bytes fn allocates.
func allocated(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestActivationLogAllocatesWholeChunks: a platform logs its attempts in
// whole chunks of 32, so logging n of them allocates ceil(n/32) chunks
// and the list that holds them, and copies no entry; an append-grown
// slice copied itself about eight times over a rig's few hundred.
// Activations then copies the log out once, in order.
func TestActivationLogAllocatesWholeChunks(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	_, pf := newTestPlatform(t, exactConfig())
	const n, chunk = 5*32 + 7, 32
	chunks := uint64((n + chunk - 1) / chunk)
	listMallocs, listBytes := allocated(func() {
		var list [][]Activation
		for range chunks {
			list = append(list, nil)
		}
		listSink = list
	})
	chunkMallocs, chunkBytes := allocated(func() { chunkSink = make([]Activation, 0, chunk) })
	mallocs, bytes := allocated(func() {
		for i := range n {
			pf.log.Add(Activation{ID: int64(i)})
		}
	})
	t.Logf("%d activations: %d mallocs, %d B (%d chunks of %d B, list %d B)", n, mallocs, bytes, chunks, chunkBytes, listBytes)
	if wantM, wantB := chunks*chunkMallocs+listMallocs, chunks*chunkBytes+listBytes; mallocs != wantM || bytes != wantB {
		t.Errorf("logging %d activations allocates %d times, %d B; want %d chunks and their list, %d times, %d B", n, mallocs, bytes, chunks, wantM, wantB)
	}
	acts := pf.Activations()
	if len(acts) != n {
		t.Fatalf("%d activations logged, %d returned", n, len(acts))
	}
	for i, a := range acts {
		if a.ID != int64(i) {
			t.Fatalf("activation %d has ID %d", i, a.ID)
		}
	}
}
