package shuffle

import (
	"errors"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// cacheTestConfig is a fast small-node cache profile for logic tests.
func cacheTestConfig() memcache.Config {
	return memcache.Config{
		NodeMemoryBytes:  64 << 20,
		RequestLatency:   100 * time.Microsecond,
		PerConnBandwidth: 1e9,
		NodeBandwidth:    0,
		NodeOpsPerSec:    1e6,
		OpsBurst:         1e6,
		ProvisionTime:    2 * time.Second,
		NodeHourlyUSD:    0.3,
	}
}

func cacheSpec(workers int) Spec {
	spec := sortSpec(workers)
	spec.Exchange = ViaCache
	return spec
}

func runCacheSort(t *testing.T, rig *testRig, recs []bed.Record, spec Spec) (Result, []bed.Record) {
	t.Helper()
	var res Result
	var sorted []bed.Record
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		res, sortErr = rig.op.Sort(p, spec)
		if sortErr != nil {
			return
		}
		sorted = rig.fetchSorted(t, p, res.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr != nil {
		t.Fatalf("cache Sort: %v", sortErr)
	}
	return res, sorted
}

func TestCacheSortProducesGlobalOrder(t *testing.T) {
	rig, _ := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 5000, Seed: 11, Sorted: false})
	res, sorted := runCacheSort(t, rig, recs, cacheSpec(8))
	if res.Workers != 8 || len(res.OutputKeys) != 8 {
		t.Fatalf("workers/parts = %d/%d, want 8/8", res.Workers, len(res.OutputKeys))
	}
	if len(sorted) != len(recs) {
		t.Fatalf("sorted count = %d, want %d", len(sorted), len(recs))
	}
	if !bed.IsSorted(sorted) {
		t.Fatal("concatenated output parts are not globally sorted")
	}
}

func TestCacheSortMatchesObjectStorageSort(t *testing.T) {
	// The two operators must produce identical sorted output; only the
	// exchange substrate differs.
	recs := bed.Generate(bed.GenConfig{Records: 4000, Seed: 12, Sorted: false})

	cosRig := newRig(t)
	_, viaCOS := runSort(t, cosRig, recs, sortSpec(6))

	cacheRig, _ := newCacheRig(t)
	_, viaCache := runCacheSort(t, cacheRig, recs, cacheSpec(6))

	if len(viaCOS) != len(viaCache) {
		t.Fatalf("lengths differ: %d vs %d", len(viaCOS), len(viaCache))
	}
	for i := range viaCOS {
		if viaCOS[i] != viaCache[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, viaCOS[i], viaCache[i])
		}
	}
}

func TestCacheSortPreservesRecords(t *testing.T) {
	rig, _ := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 13, Sorted: false})
	_, sorted := runCacheSort(t, rig, recs, cacheSpec(5))
	want := recordMultiset(recs)
	got := recordMultiset(sorted)
	if len(want) != len(got) {
		t.Fatalf("distinct records: got %d, want %d", len(got), len(want))
	}
	for r, n := range want {
		if got[r] != n {
			t.Fatalf("record %+v count = %d, want %d", r, got[r], n)
		}
	}
}

func TestCacheSortStopsClusterAndReportsCost(t *testing.T) {
	rig, prov := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 1000, Seed: 14, Sorted: false})
	runCacheSort(t, rig, recs, cacheSpec(4))
	clusters := prov.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(clusters))
	}
	if usd := clusters[0].CostAt(rig.sim.Now()); usd <= 0 {
		t.Errorf("cluster cost = %g, want > 0", usd)
	}
	if !clusters[0].Stopped() {
		t.Error("cluster left running after sort")
	}
	// All intermediates were deleted by the reducers.
	if used := clusters[0].UsedBytes(); used != 0 {
		t.Errorf("cache still holds %d bytes after sort", used)
	}
}

func TestCacheSortColdPaysProvisioning(t *testing.T) {
	rig, _ := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 500, Seed: 15, Sorted: false})
	res, _ := runCacheSort(t, rig, recs, cacheSpec(2))
	if res.Provision < 2*time.Second {
		t.Errorf("cold Provision = %v, want >= 2s spin-up", res.Provision)
	}
}

func TestCacheSortWarmSkipsProvisioning(t *testing.T) {
	rig, _ := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 500, Seed: 15, Sorted: false})
	spec := cacheSpec(2)
	spec.Warm = true
	res, sorted := runCacheSort(t, rig, recs, spec)
	if res.Provision != 0 {
		t.Errorf("warm Provision = %v, want 0", res.Provision)
	}
	if !bed.IsSorted(sorted) || len(sorted) != len(recs) {
		t.Fatal("warm sort incorrect")
	}
}

func TestCacheSortAutoSizesCluster(t *testing.T) {
	rig, _ := newCacheRig(t)
	var res Result
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		// 200 MB over 64 MB nodes at 1.3 headroom: ceil(260/64) = 5 nodes.
		if err := c.Put(p, "in", "data.bed", payload.Sized(200<<20)); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		res, sortErr = rig.op.Sort(p, cacheSpec(8))
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr != nil {
		t.Fatalf("Sort: %v", sortErr)
	}
	if res.Nodes != 5 {
		t.Errorf("auto-sized Nodes = %d, want 5", res.Nodes)
	}
}

func TestCacheSortFixedNodes(t *testing.T) {
	rig, _ := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 1000, Seed: 16, Sorted: false})
	spec := cacheSpec(4)
	spec.Nodes = 3
	res, _ := runCacheSort(t, rig, recs, spec)
	if res.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3", res.Nodes)
	}
}

func TestCacheSortAutoPlansWorkers(t *testing.T) {
	rig, _ := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 17, Sorted: false})
	spec := cacheSpec(0)
	spec.MaxWorkers = 32
	spec.WorkerMemBytes = 2 << 30
	res, sorted := runCacheSort(t, rig, recs, spec)
	if !res.AutoPlanned {
		t.Fatal("AutoPlanned = false")
	}
	if res.Workers < 1 || res.Workers > 32 {
		t.Fatalf("planned workers = %d", res.Workers)
	}
	if !bed.IsSorted(sorted) || len(sorted) != len(recs) {
		t.Fatal("auto-planned cache sort incorrect")
	}
}

func TestCacheSortSizedPayload(t *testing.T) {
	rig, _ := newCacheRig(t)
	var res Result
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		if err := c.Put(p, "in", "data.bed", payload.Sized(50<<20)); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		res, sortErr = rig.op.Sort(p, cacheSpec(8))
		if sortErr != nil {
			return
		}
		var total int64
		for _, k := range res.OutputKeys {
			obj, err := c.Head(p, "out", k)
			if err != nil {
				t.Errorf("head %s: %v", k, err)
				return
			}
			total += obj.Size
		}
		if total != 50<<20 {
			t.Errorf("output bytes = %d, want %d", total, int64(50<<20))
		}
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr != nil {
		t.Fatalf("Sort: %v", sortErr)
	}
	if res.Phase1 <= 0 || res.Phase2 <= 0 {
		t.Fatalf("phases not timed: %+v", res)
	}
}

func TestCacheSortEmptyInputFails(t *testing.T) {
	rig, _ := newCacheRig(t)
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		_ = c.Put(p, "in", "data.bed", payload.Real(nil))
		_, sortErr = rig.op.Sort(p, cacheSpec(4))
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr == nil {
		t.Fatal("empty input accepted")
	}
}

func TestCacheSortValidatesSpec(t *testing.T) {
	rig, _ := newCacheRig(t)
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		_, sortErr = rig.op.Sort(p, Spec{OutputBucket: "out", Exchange: ViaCache})
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestCacheOperatorNeedsProvisioner(t *testing.T) {
	if err := cacheSpec(4).validate(false); err == nil {
		t.Fatal("cache sort accepted on an operator with no provisioner")
	}
}

func TestCacheProfileScalesWithNodes(t *testing.T) {
	cfg := cacheTestConfig()
	cfg.NodeBandwidth = 1e9
	one := CacheProfile(cfg, 1)
	four := CacheProfile(cfg, 4)
	if four.AggregateBandwidth != 4*one.AggregateBandwidth {
		t.Errorf("aggregate bandwidth: 4 nodes = %g, 1 node = %g", four.AggregateBandwidth, one.AggregateBandwidth)
	}
	if four.ReadOpsPerSec != 4*one.ReadOpsPerSec {
		t.Errorf("read ops: 4 nodes = %g, 1 node = %g", four.ReadOpsPerSec, one.ReadOpsPerSec)
	}
	if got := CacheProfile(cfg, 0); got.ReadOpsPerSec != one.ReadOpsPerSec {
		t.Error("CacheProfile(0) should clamp to one node")
	}
}

func TestCacheSortUndersizedClusterFails(t *testing.T) {
	// One 64 MB node cannot hold a 200 MB shuffle without eviction:
	// some map Set must fail with OOM, surfacing as a sort error.
	rig, _ := newCacheRig(t)
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		if err := c.Put(p, "in", "data.bed", payload.Sized(200<<20)); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		spec := cacheSpec(8)
		spec.Nodes = 1
		_, sortErr = rig.op.Sort(p, spec)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr == nil {
		t.Fatal("undersized cluster accepted")
	}
	if !errors.Is(sortErr, memcache.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory in chain", sortErr)
	}
}
