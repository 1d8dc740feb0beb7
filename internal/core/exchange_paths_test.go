package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

func TestObjectStorageExchangeHierarchical(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 81, Sorted: false})
	params := stageData(t, r, recs)
	params.Workers = 8
	params.Exchange, params.Groups = shuffle.ViaStoreTwoLevel, 4

	w := NewWorkflow("hier")
	if err := w.Add(&SortStage{Strategy: ObjectStorageExchange{}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sr, _ := rep.Stage("sort")
	if sr.Err != nil {
		t.Fatalf("sort err: %v", sr.Err)
	}
}

// TestStrategiesRejectAnotherFamilysExchange: a spec that names an
// exchange its strategy does not run fails before anything is invoked or
// provisioned, instead of running the strategy's own exchange in its
// place. Groups without the two-level exchange fails the same way.
func TestStrategiesRejectAnotherFamilysExchange(t *testing.T) {
	ve := &VMExchange{Leg: vm.Leg{InstanceType: "bx2-8x32", SortBps: 100e6}}
	cases := []struct {
		strategy ExchangeStrategy
		exchange shuffle.Exchange
		groups   int
	}{
		{ObjectStorageExchange{}, shuffle.ViaCache, 0},
		{ObjectStorageExchange{}, shuffle.ViaStore, 2},
		{&CacheExchange{}, shuffle.ViaStoreTwoLevel, 2},
		{&CacheExchange{}, shuffle.ViaStore, 2},
		{ve, shuffle.ViaStoreTwoLevel, 2},
		{ve, shuffle.ViaCache, 0},
		{&AutoExchange{}, shuffle.ViaStoreTwoLevel, 2},
		{&AutoExchange{}, shuffle.ViaStore, 2},
	}
	for _, c := range cases {
		r, _ := newCacheRig(t)
		params := stageData(t, r, bed.Generate(bed.GenConfig{Records: 100, Seed: 85}))
		params.Exchange, params.Groups = c.exchange, c.groups
		w := NewWorkflow("wf")
		if err := w.Add(&SortStage{Strategy: c.strategy, Params: params}); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if _, err := r.run(t, w); err == nil {
			t.Errorf("%s ran exchange %d with %d groups", c.strategy.Name(), c.exchange, c.groups)
		}
		if n := r.exec.Platform.Meter().Invocations; n != 0 || len(r.exec.Provisioner.Instances()) != 0 {
			t.Errorf("%s given exchange %d: %d invocations, %d instances before rejecting",
				c.strategy.Name(), c.exchange, n, len(r.exec.Provisioner.Instances()))
		}
	}
}

func TestObjectStorageExchangeNoOperator(t *testing.T) {
	r := newRig(t)
	r.exec.Shuffle = nil
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 82, Sorted: false})
	params := stageData(t, r, recs)
	w := NewWorkflow("wf")
	if err := w.Add(&SortStage{Strategy: ObjectStorageExchange{}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := r.run(t, w); err == nil || !strings.Contains(err.Error(), "no shuffle operator") {
		t.Fatalf("err = %v", err)
	}
}

func TestVMExchangeDatasetExceedsMemory(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 83, Sorted: false})
	params := stageData(t, r, recs)
	// Claim a tiny instance type cannot hold a fake huge dataset by
	// staging a sized object bigger than the smallest catalog entry.
	params.InputKey = "huge"
	r.sim.Spawn("stage-huge", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		_ = c.Put(p, "data", "huge", payload.Sized(9<<30)) // 9 GB > bx2-2x8's 8 GB
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("stage sim: %v", err)
	}
	w := NewWorkflow("wf")
	strategy := &VMExchange{Leg: vm.Leg{InstanceType: "bx2-2x8", SortBps: 100e6}}
	if err := w.Add(&SortStage{Strategy: strategy, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	_, err := r.run(t, w)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized dataset err = %v", err)
	}
}

func TestVMExchangeNeedsExplicitWorkers(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 84, Sorted: false})
	params := stageData(t, r, recs)
	params.Workers = 0
	w := NewWorkflow("wf")
	if err := w.Add(&SortStage{Strategy: &VMExchange{Leg: vm.Leg{InstanceType: "bx2-8x32"}}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := r.run(t, w); err == nil || !strings.Contains(err.Error(), "explicit Workers") {
		t.Fatalf("err = %v", err)
	}
}

// TestVMExchangeSortsAtTheLegsRate: a leg that names no SortBps sorts at
// vm.DefaultSortBps, the rate the planner prices the leg at, instead of
// for free.
func TestVMExchangeSortsAtTheLegsRate(t *testing.T) {
	size := int64(1 << 30)
	end := func(leg vm.Leg) time.Duration {
		r := newRig(t)
		var err error
		r.sim.Spawn("driver", func(p *des.Proc) {
			c := objectstore.NewClient(r.exec.Store)
			for _, b := range []string{"data", "work"} {
				if err = c.CreateBucket(p, b); err != nil {
					return
				}
			}
			if err = c.Put(p, "data", "in", payload.Sized(size)); err != nil {
				return
			}
			_, err = (&VMExchange{Leg: leg}).RunSort(&StageContext{Proc: p, Exec: r.exec},
				shuffle.Spec{InputBucket: "data", InputKey: "in", OutputBucket: "work", OutputPrefix: "sorted/", Workers: 2})
		})
		if serr := r.sim.Run(); serr != nil || err != nil {
			t.Fatalf("sim %v, run %v", serr, err)
		}
		return r.sim.Now()
	}
	unset := end(vm.Leg{InstanceType: "bx2-8x32"})
	if named := end(vm.Leg{InstanceType: "bx2-8x32", SortBps: vm.DefaultSortBps}); unset != named {
		t.Errorf("a leg with no SortBps ends at %v, one naming vm.DefaultSortBps at %v", unset, named)
	}
	free := end(vm.Leg{InstanceType: "bx2-8x32", SortBps: math.Inf(1)})
	if got, want := unset-free, time.Duration(float64(size)/vm.DefaultSortBps*float64(time.Second)); got != want {
		t.Errorf("a leg with no SortBps sorted for %v, want size/vm.DefaultSortBps = %v", got, want)
	}
}
