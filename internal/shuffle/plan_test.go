package shuffle

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

func testProfile() StoreProfile {
	return StoreProfile{
		RequestLatency:     15 * time.Millisecond,
		PerConnBandwidth:   100e6,
		AggregateBandwidth: 40e9,
		ReadOpsPerSec:      3000,
		WriteOpsPerSec:     1500,
	}
}

func testInput(bytes int64) PlanInput {
	return PlanInput{
		DataBytes:      bytes,
		MaxWorkers:     128,
		WorkerMemBytes: 2 << 30,
		Startup:        time.Second,
	}
}

func TestPredictUShape(t *testing.T) {
	in := testInput(3500e6)
	sp := testProfile()
	few := Predict(1, in, sp).Predicted
	opt, err := Optimize(in, sp)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	many := Predict(128, in, sp).Predicted
	if opt.Predicted >= few {
		t.Fatalf("optimum %v not better than 1 worker %v", opt.Predicted, few)
	}
	if opt.Predicted >= many {
		t.Fatalf("optimum %v not better than 128 workers %v", opt.Predicted, many)
	}
	if opt.Workers <= 1 || opt.Workers >= 128 {
		t.Fatalf("optimum at boundary: %d workers", opt.Workers)
	}
	t.Logf("3.5GB: optimum %d workers, predicted %v (1w: %v, 128w: %v)",
		opt.Workers, opt.Predicted, few, many)
}

func TestOptimizeRespectsMemoryFloor(t *testing.T) {
	in := testInput(3500e6)
	in.WorkerMemBytes = 512 << 20 // 512MB functions, 60% usable
	sp := testProfile()
	plan, err := Optimize(in, sp)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	minW := MinWorkersForMemory(in)
	if minW < 11 {
		t.Fatalf("MinWorkersForMemory = %d, want >= 11 for 3.5GB over 307MB usable", minW)
	}
	if plan.Workers < minW {
		t.Fatalf("plan %d workers below memory floor %d", plan.Workers, minW)
	}
	if plan.MinWorkers != minW {
		t.Fatalf("plan.MinWorkers = %d, want %d", plan.MinWorkers, minW)
	}
}

func TestOptimizeErrorWhenMemoryImpossible(t *testing.T) {
	in := testInput(1 << 40) // 1 TiB
	in.MaxWorkers = 4
	in.WorkerMemBytes = 1 << 30
	if _, err := Optimize(in, testProfile()); err == nil {
		t.Fatal("impossible memory constraint accepted")
	}
}

func TestOptimizeRejectsBadInput(t *testing.T) {
	if _, err := Optimize(testInput(0), testProfile()); err == nil {
		t.Fatal("zero bytes accepted")
	}
	if _, err := Optimize(testInput(100), StoreProfile{}); err == nil {
		t.Fatal("empty profile accepted")
	}
}

func TestOptimalWorkersGrowWithData(t *testing.T) {
	sp := testProfile()
	small, err := Optimize(testInput(200e6), sp)
	if err != nil {
		t.Fatalf("Optimize small: %v", err)
	}
	large, err := Optimize(testInput(8000e6), sp)
	if err != nil {
		t.Fatalf("Optimize large: %v", err)
	}
	if small.Workers >= large.Workers {
		t.Fatalf("optimal workers: small=%d >= large=%d; planner not scaling",
			small.Workers, large.Workers)
	}
}

func TestPredictBreakdownSumsToTotal(t *testing.T) {
	p := Predict(8, testInput(3500e6), testProfile())
	sum := p.Startup + p.Phase1IO + p.Phase1CPU + p.Phase2IO + p.Phase2CPU
	if sum != p.Predicted {
		t.Fatalf("breakdown sum %v != predicted %v", sum, p.Predicted)
	}
}

func TestSweepMonotoneAroundOptimum(t *testing.T) {
	in := testInput(3500e6)
	sp := testProfile()
	opt, err := Optimize(in, sp)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	for w := 1; w <= 64 && w <= in.MaxWorkers; w++ {
		if pt := Predict(w, in, sp); pt.Predicted < opt.Predicted {
			t.Fatalf("sweep found better point (%d workers, %v) than optimizer (%d, %v)",
				w, pt.Predicted, opt.Workers, opt.Predicted)
		}
	}
}

func TestPropertyPredictPositive(t *testing.T) {
	sp := testProfile()
	f := func(dataSeed uint32, wSeed uint8) bool {
		data := int64(dataSeed)%int64(10e9) + 1
		w := int(wSeed)%200 + 1
		p := Predict(w, testInput(data), sp)
		return p.Predicted > 0 &&
			p.Phase1IO >= 0 && p.Phase2IO >= 0 &&
			p.Phase1CPU >= 0 && p.Phase2CPU >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOptimizeNeverWorseThanFixed(t *testing.T) {
	sp := testProfile()
	f := func(dataSeed uint32, wSeed uint8) bool {
		data := int64(dataSeed)%int64(10e9) + 1e6
		in := testInput(data)
		opt, err := Optimize(in, sp)
		if err != nil {
			return false
		}
		w := int(wSeed)%in.MaxWorkers + 1
		if w < opt.MinWorkers {
			return true // fixed choice violates memory; not comparable
		}
		return opt.Predicted <= Predict(w, in, sp).Predicted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoPlanFoldsTheJobsOwnWaves: a job left to pick its workers is
// sized by the model of the exchange it runs — the two-level wave list
// for SortHierarchical (fixed groups admit only the worker counts they
// divide; 0 groups take autoGroups of each), the cache's for
// CacheOperator — so Result.Planned is the argmin, and the value, of
// PredictHierarchical / PredictCache over the feasible worker counts.
func TestAutoPlanFoldsTheJobsOwnWaves(t *testing.T) {
	const size = 2e8
	spec := sortSpec(0)
	spec.MaxWorkers = 128
	spec.WorkerMemBytes = 256 << 20
	spec.Startup = 300 * time.Millisecond
	in := PlanInput{DataBytes: size, MaxWorkers: spec.MaxWorkers, WorkerMemBytes: spec.WorkerMemBytes, Startup: spec.Startup}
	argmin := func(model func(w int) (Plan, bool)) Plan {
		best := Plan{}
		for w := MinWorkersForMemory(in); w <= in.MaxWorkers; w++ {
			if p, ok := model(w); ok && (best.Workers == 0 || p.Predicted < best.Predicted) {
				best = p
			}
		}
		best.MinWorkers = MinWorkersForMemory(in)
		return best
	}
	for _, tc := range []struct {
		name string
		sort func(rig *testRig, cop *CacheOperator, p *des.Proc) (Result, error)
		want func(rig *testRig, prov *memcache.Provisioner, res Result) Plan
	}{
		{"hierarchical, auto groups",
			func(rig *testRig, _ *CacheOperator, p *des.Proc) (Result, error) {
				return rig.op.SortHierarchical(p, HierSpec{Spec: spec})
			},
			func(rig *testRig, _ *memcache.Provisioner, _ Result) Plan {
				return argmin(func(w int) (Plan, bool) {
					return PredictHierarchical(w, autoGroups(w), in, ProfileOf(rig.store.Config())), true
				})
			}},
		{"hierarchical, 4 groups",
			func(rig *testRig, _ *CacheOperator, p *des.Proc) (Result, error) {
				return rig.op.SortHierarchical(p, HierSpec{Spec: spec, Groups: 4})
			},
			func(rig *testRig, _ *memcache.Provisioner, _ Result) Plan {
				return argmin(func(w int) (Plan, bool) {
					return PredictHierarchical(w, 4, in, ProfileOf(rig.store.Config())), w%4 == 0
				})
			}},
		{"cache",
			func(_ *testRig, cop *CacheOperator, p *des.Proc) (Result, error) {
				return cop.Sort(p, CacheSpec{Spec: spec})
			},
			func(rig *testRig, prov *memcache.Provisioner, res Result) Plan {
				cache := CacheProfile(prov.Config(), res.Nodes)
				return argmin(func(w int) (Plan, bool) {
					return PredictCache(w, in, ProfileOf(rig.store.Config()), cache, 0), true
				})
			}},
	} {
		rig, prov, cop := newCacheRig(t)
		var res Result
		var err error
		rig.sim.Spawn("driver", func(p *des.Proc) {
			c := objectstore.NewClient(rig.store)
			_ = c.CreateBucket(p, "in")
			_ = c.CreateBucket(p, "out")
			if err = c.Put(p, "in", "data.bed", payload.Sized(size)); err == nil {
				res, err = tc.sort(rig, cop, p)
			}
		})
		if serr := rig.sim.Run(); serr != nil {
			t.Fatalf("%s: sim: %v", tc.name, serr)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := tc.want(rig, prov, res)
		if !res.AutoPlanned || res.Planned != want || res.Workers != want.Workers {
			t.Errorf("%s: planned %d workers (%v), want %d (%v)",
				tc.name, res.Planned.Workers, res.Planned.Predicted, want.Workers, want.Predicted)
		}
	}
}
