package shuffle

import (
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// scratchKeys lists leftover intermediate objects after a sort. The
// operators write intermediates under "<job id>/..." prefixes in the
// scratch bucket, distinct from the "sorted/" output prefix.
func scratchKeys(t *testing.T, rig *testRig, bucket string) []string {
	t.Helper()
	var keys []string
	rig.sim.Spawn("scan", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		all, err := c.ListAll(p, bucket, "")
		if err != nil {
			t.Errorf("list: %v", err)
			return
		}
		for _, k := range all {
			if len(k) >= 7 && k[:7] == "sorted/" {
				continue
			}
			keys = append(keys, k)
		}
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("scan sim: %v", err)
	}
	return keys
}

func TestSortLeavesScratchByDefault(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 1000, Seed: 61, Sorted: false})
	_, sorted := runSort(t, rig, recs, sortSpec(4))
	if len(sorted) != len(recs) {
		t.Fatalf("sorted = %d", len(sorted))
	}
	if got := scratchKeys(t, rig, "out"); len(got) != 16 {
		t.Fatalf("scratch objects = %d, want 4x4 left in place", len(got))
	}
}

func TestSortCleanupScratch(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 1000, Seed: 61, Sorted: false})
	spec := sortSpec(4)
	spec.CleanupScratch = true
	_, sorted := runSort(t, rig, recs, spec)
	if len(sorted) != len(recs) || !bed.IsSorted(sorted) {
		t.Fatal("cleanup sort incorrect")
	}
	if got := scratchKeys(t, rig, "out"); len(got) != 0 {
		t.Fatalf("scratch objects = %d (%v), want 0", len(got), got)
	}
}

func TestHierSortCleanupScratch(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 1200, Seed: 62, Sorted: false})
	spec := hierSpec(8, 4)
	spec.CleanupScratch = true
	_, sorted := runHierSort(t, rig, recs, spec)
	if len(sorted) != len(recs) || !bed.IsSorted(sorted) {
		t.Fatal("cleanup hierarchical sort incorrect")
	}
	if got := scratchKeys(t, rig, "out"); len(got) != 0 {
		t.Fatalf("scratch objects = %d (%v), want 0", len(got), got)
	}
}

func TestCleanupRejectsSpeculation(t *testing.T) {
	spec := sortSpec(4)
	spec.CleanupScratch = true
	spec.Speculate = true
	if err := spec.validate(); err == nil {
		t.Fatal("CleanupScratch+Speculate accepted; duplicates re-read deleted partitions")
	}
}

// TestSortCleanupScratchWithRetries: CleanupScratch composed with
// MaxRetries used to share Speculate's non-idempotence hazard — a
// retried reducer re-fetching partitions a failed attempt had already
// deleted. Deletes are now deferred until after the output Put, so the
// combination must sort correctly under injected failures AND leave no
// scratch behind.
func TestSortCleanupScratchWithRetries(t *testing.T) {
	sim := des.New(9)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   time.Millisecond,
		PerConnBandwidth: 1e9,
		ReadOpsPerSec:    1e6,
		WriteOpsPerSec:   1e6,
		OpsBurst:         1e6,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := newFaultyPlatform(sim, store, 0.2)
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	op, err := NewOperator(pf, store)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	rig := &testRig{sim: sim, store: store, pf: pf, op: op}
	recs := bed.Generate(bed.GenConfig{Records: 1500, Seed: 63, Sorted: false})
	spec := sortSpec(4)
	spec.CleanupScratch = true
	spec.MaxRetries = 8
	_, sorted := runSort(t, rig, recs, spec)
	if len(sorted) != len(recs) || !bed.IsSorted(sorted) {
		t.Fatal("cleanup+retries sort incorrect")
	}
	if got := scratchKeys(t, rig, "out"); len(got) != 0 {
		t.Fatalf("scratch objects = %d (%v), want 0", len(got), got)
	}
	if pf.Meter().Retries == 0 {
		t.Error("no retries metered at 20% failure rate; test exercised nothing")
	}
}
