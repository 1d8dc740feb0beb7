package shuffle

import (
	"bytes"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

func TestAdaptiveChunkBytes(t *testing.T) {
	cases := []struct {
		explicit, slice, want int64
	}{
		{1 << 20, 64 << 20, 1 << 20},   // explicit override wins
		{0, 64 << 20, maxStreamChunk},  // big slice clamps to ceiling
		{0, 100 << 10, minStreamChunk}, // small slice clamps to floor
		{0, 4 << 20, 512 << 10},        // in band: slice/8
		{0, 0, minStreamChunk},         // unknown slice: floor
	}
	for _, c := range cases {
		if got := AdaptiveChunkBytes(c.explicit, c.slice); got != c.want {
			t.Errorf("AdaptiveChunkBytes(%d, %d) = %d, want %d", c.explicit, c.slice, got, c.want)
		}
	}
}

// streamReduceRig builds a sort rig whose store is slow enough that
// the reduce transfers rival the merge CPU, optionally with injected
// failures — the regime where streaming's overlap matters.
func streamReduceRig(t *testing.T, seed int64, perConnBps, failureRate float64) *testRig {
	t.Helper()
	sim := des.New(seed)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   time.Millisecond,
		PerConnBandwidth: perConnBps,
		ReadOpsPerSec:    1e6,
		WriteOpsPerSec:   1e6,
		OpsBurst:         1e6,
		FailureRate:      failureRate,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := faas.New(sim, store, faas.Config{
		ColdStart:          50 * time.Millisecond,
		WarmStart:          5 * time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   500,
		BillingGranularity: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	op, err := NewOperator(pf, store, nil)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	return &testRig{sim: sim, store: store, pf: pf, op: op}
}

// bufferedReducePhase2 is what the reduce phase of
// TestStreamedReduceOverlapsTransfer's rig cost when the reducer
// fetched every run whole, merged, and wrote one monolithic Put: Phase2
// under Spec.BufferedRead at commit 357016d, the last to carry that
// switch (deterministic sim). EXPERIMENTS.md, PR 6 and PR 14, has the
// A/B.
const bufferedReducePhase2 = 2969233000 * time.Nanosecond

// TestStreamedReduceOverlapsTransfer is the reduce-side acceptance
// criterion: with transfer rates rivaling the merge rate, the streamed
// reduce phase — concurrent chunked GETs feeding the k-way merge while
// completed output parts upload — must beat the buffered read + merge
// + write sum by roughly the two legs it hides.
func TestStreamedReduceOverlapsTransfer(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 1 << 18, Seed: 19, Sorted: false})
	rig := streamReduceRig(t, 5, 4e6, 0)
	spec := sortSpec(4)
	spec.MergeBps = 4e6 // merge-bound ≈ transfer-bound: maximal overlap win
	spec.StreamChunkBytes = 256 << 10
	streamRes, sorted := runSort(t, rig, recs, spec)
	if len(sorted) != len(recs) || !bed.IsSorted(sorted) {
		t.Fatal("overlap rig sorted incorrectly")
	}
	// Buffered paid read + merge + write serially (~3 equal legs);
	// streamed costs ~max of the three. Require well under 2/3.
	if bound := bufferedReducePhase2 * 6 / 10; streamRes.Phase2 > bound {
		t.Fatalf("streamed Phase2 %v hides too little (buffered %v, want <= %v)",
			streamRes.Phase2, bufferedReducePhase2, bound)
	}
	t.Logf("reduce phase2: streamed %v vs buffered %v", streamRes.Phase2, bufferedReducePhase2)
}

// TestSmallJobAdaptiveChunkOverlap: a job whose reduce runs fit inside
// one default 4 MiB chunk would degenerate to a buffered read at fixed
// granularity; the adaptive slice/8 clamp must restore genuine
// transfer/compute overlap with no explicit tuning.
func TestSmallJobAdaptiveChunkOverlap(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 1 << 18, Seed: 23, Sorted: false})

	run := func(chunk int64) Result {
		rig := streamReduceRig(t, 7, 4e6, 0)
		spec := sortSpec(4)
		spec.MergeBps = 4e6
		spec.StreamChunkBytes = chunk // 0: adaptive
		res, sorted := runSort(t, rig, recs, spec)
		if len(sorted) != len(recs) || !bed.IsSorted(sorted) {
			t.Fatal("small-job rig sorted incorrectly")
		}
		return res
	}

	adaptive := run(0)
	fixed := run(objectstore.DefaultStreamChunk)
	if adaptive.TotalBytes/4 >= objectstore.DefaultStreamChunk {
		t.Fatalf("workload too large for the test's premise: %d bytes/worker", adaptive.TotalBytes/4)
	}
	if adaptive.Phase2 >= fixed.Phase2 {
		t.Fatalf("adaptive chunking Phase2 %v not faster than fixed 4 MiB %v on a small job",
			adaptive.Phase2, fixed.Phase2)
	}
	t.Logf("small job phase2: adaptive %v vs fixed-4MiB %v", adaptive.Phase2, fixed.Phase2)
}

// TestStreamedReduceUnderStoreFailuresWithCleanup: throttles hitting
// the reduce streams' continuations mid-merge must resume within the
// shared MaxRetries budget, and CleanupScratch's deferred deletes must
// stay past the durable multipart complete — so retried reducers can
// re-read their runs, bytes stay identical, and no scratch survives.
func TestStreamedReduceUnderStoreFailuresWithCleanup(t *testing.T) {
	rig := streamReduceRig(t, 17, 1e9, 0.1)
	recs := bed.Generate(bed.GenConfig{Records: 4000, Seed: 85, Sorted: false})
	want := seedSortedBytes(recs)
	spec := sortSpec(4)
	spec.StreamChunkBytes = 4096 // many continuations per stream: plenty of failure draws
	spec.MaxRetries = 8
	spec.CleanupScratch = true
	var got []byte
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		res, err := rig.op.Sort(p, spec)
		if err != nil {
			t.Errorf("Sort under failures: %v", err)
			return
		}
		got = fetchRawParts(t, rig, p, res.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output corrupt under injected failures: %d bytes, want %d", len(got), len(want))
	}
	if rig.store.Metrics().Throttled == 0 {
		t.Fatal("no throttles metered at 10% failure rate; test exercised nothing")
	}
	if keys := scratchKeys(t, rig, "out"); len(keys) != 0 {
		t.Fatalf("scratch objects = %d (%v), want 0", len(keys), keys)
	}
}
