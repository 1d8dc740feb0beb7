package core

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

// newCacheRig is the test rig with a cache provisioner wired in.
func newCacheRig(t *testing.T) (*rig, *memcache.Provisioner) {
	t.Helper()
	r := newRigWith(t, &memcache.Config{
		NodeMemoryBytes:  64 << 20,
		RequestLatency:   100 * time.Microsecond,
		PerConnBandwidth: 1e9,
		NodeOpsPerSec:    1e6,
		OpsBurst:         1e6,
		ProvisionTime:    time.Second,
		NodeHourlyUSD:    0.3,
	})
	return r, r.exec.CacheProv
}

// stageData uploads records and returns the standard sort params.
func stageData(t *testing.T, r *rig, recs []bed.Record) SortParams {
	t.Helper()
	r.sim.Spawn("stage", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		if err := c.CreateBucket(p, "data"); err != nil {
			t.Errorf("bucket: %v", err)
			return
		}
		if err := c.CreateBucket(p, "work"); err != nil {
			t.Errorf("bucket: %v", err)
			return
		}
		if err := c.Put(p, "data", "in.bed", payload.RealNoCopy(bed.Marshal(recs))); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("stage sim: %v", err)
	}
	return SortParams{
		InputBucket: "data", InputKey: "in.bed",
		OutputBucket: "work", OutputPrefix: "sorted/",
		Workers: 4,
	}
}

func TestCacheExchangeSortsCorrectly(t *testing.T) {
	r, prov := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 21, Sorted: false})
	params := stageData(t, r, recs)

	w := NewWorkflow("cache-sort")
	if err := w.Add(&SortStage{Strategy: &CacheExchange{}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	sr, ok := rep.Stage("sort")
	if !ok {
		t.Fatal("no sort stage report")
	}
	if sr.Cost.Cache <= 0 {
		t.Errorf("stage Cost.Cache = %g, want > 0", sr.Cost.Cache)
	}
	clusters := prov.Clusters()
	if len(clusters) != 1 || !clusters[0].Stopped() {
		t.Errorf("cluster lifecycle wrong: %d clusters", len(clusters))
	}

	// Verify sorted output.
	var all []bed.Record
	r.sim.Spawn("verify", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		keys, err := c.ListAll(p, "work", "sorted/")
		if err != nil {
			t.Errorf("list: %v", err)
			return
		}
		if len(keys) != 4 {
			t.Errorf("parts = %d, want 4", len(keys))
		}
		for _, k := range keys {
			pl, err := c.Get(p, "work", k)
			if err != nil {
				t.Errorf("get %s: %v", k, err)
				return
			}
			raw, _ := pl.Bytes()
			part, err := bed.Unmarshal(raw)
			if err != nil {
				t.Errorf("parse %s: %v", k, err)
				return
			}
			all = append(all, part...)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("verify sim: %v", err)
	}
	if len(all) != len(recs) || !bed.IsSorted(all) {
		t.Fatalf("output: %d records, sorted=%v; want %d sorted", len(all), bed.IsSorted(all), len(recs))
	}
}

func TestCacheExchangeNamesReflectWarmth(t *testing.T) {
	cold := &CacheExchange{}
	warm := &CacheExchange{Warm: true}
	if cold.Name() != "cache" || warm.Name() != "cache-warm" {
		t.Errorf("names = %q / %q", cold.Name(), warm.Name())
	}
}

func TestCacheExchangeRequiresOperator(t *testing.T) {
	r := newRig(t) // no cache wired
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 22, Sorted: false})
	params := stageData(t, r, recs)
	w := NewWorkflow("cache-sort")
	if err := w.Add(&SortStage{Strategy: &CacheExchange{}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	_, err := r.run(t, w)
	if err == nil {
		t.Fatal("run without cache operator succeeded")
	}
}

func TestCacheExchangeWarmIsFaster(t *testing.T) {
	runOnce := func(warm bool) time.Duration {
		r, _ := newCacheRig(t)
		recs := bed.Generate(bed.GenConfig{Records: 1000, Seed: 23, Sorted: false})
		params := stageData(t, r, recs)
		w := NewWorkflow("cache-sort")
		if err := w.Add(&SortStage{Strategy: &CacheExchange{Warm: warm}, Params: params}); err != nil {
			t.Fatalf("Add: %v", err)
		}
		rep, err := r.run(t, w)
		if err != nil {
			t.Fatalf("Run(warm=%v): %v", warm, err)
		}
		return rep.Latency()
	}
	coldLat := runOnce(false)
	warmLat := runOnce(true)
	if warmLat >= coldLat {
		t.Errorf("warm latency %v >= cold %v; spin-up not modeled", warmLat, coldLat)
	}
	if coldLat-warmLat < 900*time.Millisecond {
		t.Errorf("cold-warm gap %v, want ~1s provisioning", coldLat-warmLat)
	}
}

func TestCacheCostSnapshotWithoutProvisioner(t *testing.T) {
	r := newRig(t)
	if got := r.exec.cacheCost(); got != 0 {
		t.Errorf("cacheCostSnapshot with no provisioner = %g, want 0", got)
	}
}

func TestCacheExchangeUndersizedPropagatesOOM(t *testing.T) {
	// A one-node cluster far smaller than the dataset must surface the
	// cache's OOM through the stage error chain.
	r := newRigWith(t, &memcache.Config{
		NodeMemoryBytes:  1 << 10,
		RequestLatency:   0,
		PerConnBandwidth: 1e9,
		NodeOpsPerSec:    1e6,
		OpsBurst:         1e6,
	})

	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 24, Sorted: false})
	params := stageData(t, r, recs)
	w := NewWorkflow("cache-sort")
	if err := w.Add(&SortStage{Strategy: &CacheExchange{Nodes: 1}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	_, err := r.run(t, w)
	if !errors.Is(err, memcache.ErrOutOfMemory) && !errors.Is(err, memcache.ErrTooLarge) {
		t.Fatalf("err = %v, want a cache capacity error in chain", err)
	}
}
