package shuffle

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

func hierSpec(workers, groups int) Spec {
	spec := sortSpec(workers)
	spec.Exchange, spec.Groups = ViaStoreTwoLevel, groups
	return spec
}

func runHierSort(t *testing.T, rig *testRig, recs []bed.Record, spec Spec) (Result, []bed.Record) {
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
		t.Fatalf("two-level Sort: %v", sortErr)
	}
	return res, sorted
}

func TestHierSortProducesGlobalOrder(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 6000, Seed: 41, Sorted: false})
	res, sorted := runHierSort(t, rig, recs, hierSpec(8, 4))
	if res.Workers != 8 || res.Groups != 4 {
		t.Fatalf("workers/groups = %d/%d, want 8/4", res.Workers, res.Groups)
	}
	if len(res.OutputKeys) != 8 {
		t.Fatalf("output parts = %d, want 8", len(res.OutputKeys))
	}
	if len(sorted) != len(recs) {
		t.Fatalf("sorted count = %d, want %d", len(sorted), len(recs))
	}
	if !bed.IsSorted(sorted) {
		t.Fatal("concatenated output parts are not globally sorted")
	}
}

func TestHierSortMatchesOneLevelSort(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 4000, Seed: 42, Sorted: false})

	oneRig := newRig(t)
	_, oneLevel := runSort(t, oneRig, recs, sortSpec(8))

	hierRig := newRig(t)
	_, twoLevel := runHierSort(t, hierRig, recs, hierSpec(8, 2))

	if len(oneLevel) != len(twoLevel) {
		t.Fatalf("lengths differ: %d vs %d", len(oneLevel), len(twoLevel))
	}
	for i := range oneLevel {
		if oneLevel[i] != twoLevel[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, oneLevel[i], twoLevel[i])
		}
	}
}

func TestHierSortPreservesRecords(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 43, Sorted: false})
	_, sorted := runHierSort(t, rig, recs, hierSpec(6, 3))
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

func TestHierSortSingleGroupDegenerate(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 1500, Seed: 44, Sorted: false})
	res, sorted := runHierSort(t, rig, recs, hierSpec(4, 1))
	if res.Groups != 1 {
		t.Fatalf("groups = %d", res.Groups)
	}
	if !bed.IsSorted(sorted) || len(sorted) != len(recs) {
		t.Fatal("single-group sort incorrect")
	}
}

func TestHierSortGroupsEqualWorkers(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 1500, Seed: 45, Sorted: false})
	res, sorted := runHierSort(t, rig, recs, hierSpec(4, 4))
	if res.Groups != 4 {
		t.Fatalf("groups = %d", res.Groups)
	}
	if !bed.IsSorted(sorted) || len(sorted) != len(recs) {
		t.Fatal("k=1 sort incorrect")
	}
}

func TestHierSortAutoGroups(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 46, Sorted: false})
	res, sorted := runHierSort(t, rig, recs, hierSpec(16, 0))
	if res.Groups != 4 {
		t.Fatalf("auto groups for 16 workers = %d, want 4", res.Groups)
	}
	if !bed.IsSorted(sorted) || len(sorted) != len(recs) {
		t.Fatal("auto-group sort incorrect")
	}
}

func TestHierSortRejectsNonDivisorGroups(t *testing.T) {
	rig := newRig(t)
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		_ = c.Put(p, "in", "data.bed", payload.Sized(1<<20))
		_, sortErr = rig.op.Sort(p, hierSpec(8, 3))
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr == nil {
		t.Fatal("3 groups over 8 workers accepted")
	}
}

func TestHierSortSizedPayload(t *testing.T) {
	rig := newRig(t)
	var res Result
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		if err := c.Put(p, "in", "data.bed", payload.Sized(1000e6)); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		res, sortErr = rig.op.Sort(p, hierSpec(16, 4))
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
		if total != 1000e6 {
			t.Errorf("output bytes = %d, want 1e9", total)
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
	if len(res.OutputKeys) != 16 {
		t.Fatalf("parts = %d, want 16", len(res.OutputKeys))
	}
}

func TestAutoGroups(t *testing.T) {
	cases := map[int]int{
		1:  1,
		2:  1, // divisors 1,2; sqrt=1.41; 1 is nearest
		4:  2,
		8:  2, // divisors 1,2,4,8; sqrt=2.83; 2 vs 4 tie -> first (2)
		16: 4,
		36: 6,
		64: 8,
		7:  1, // prime
		12: 3, // sqrt=3.46; divisors 3,4: 3 is nearer
	}
	for w, want := range cases {
		if got := autoGroups(w); got != want {
			t.Errorf("autoGroups(%d) = %d, want %d", w, got, want)
		}
	}
}

// TestPropertyHierEquivalence checks the central invariant across
// random shapes: the hierarchical sort emits exactly the one-level
// sort's output for any (workers, groups) divisor pair.
func TestPropertyHierEquivalence(t *testing.T) {
	f := func(seed int64, wPick, gPick uint8) bool {
		ws := []int{2, 4, 6, 8, 12}
		w := ws[int(wPick)%len(ws)]
		var divisors []int
		for g := 1; g <= w; g++ {
			if w%g == 0 {
				divisors = append(divisors, g)
			}
		}
		g := divisors[int(gPick)%len(divisors)]
		recs := bed.Generate(bed.GenConfig{Records: 800, Seed: seed, Sorted: false})

		oneRig := newRig(t)
		_, one := runSort(t, oneRig, recs, sortSpec(w))

		hierRig := newRig(t)
		_, two := runHierSort(t, hierRig, recs, hierSpec(w, g))

		if len(one) != len(two) {
			return false
		}
		for i := range one {
			if one[i] != two[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestPredictHierarchicalFewerRequestsAtScale(t *testing.T) {
	// At large worker counts the two-level exchange's request advantage
	// must show up in the model: two-level beats one-level for big w,
	// and loses (pays double transfer) for small w.
	in := PlanInput{DataBytes: 3500e6, MaxWorkers: 256}
	sp := StoreProfile{
		RequestLatency:     18e6, // 18ms
		PerConnBandwidth:   95e6,
		AggregateBandwidth: 40e9,
		ReadOpsPerSec:      3000,
		WriteOpsPerSec:     1500,
	}
	small1 := Predict(8, in, sp)
	small2 := PredictHierarchical(8, 2, in, sp)
	if small2.Predicted <= small1.Predicted {
		t.Errorf("two-level at w=8 (%v) should lose to one-level (%v): extra pass not modeled",
			small2.Predicted, small1.Predicted)
	}
	big1 := Predict(192, in, sp)
	big2 := PredictHierarchical(192, 12, in, sp)
	if big2.Predicted >= big1.Predicted {
		t.Errorf("two-level at w=192 (%v) should beat one-level (%v): request savings not modeled",
			big2.Predicted, big1.Predicted)
	}
}

// newFaultyPlatform builds a platform with the given injected failure
// rate, for fault-composition tests.
func newFaultyPlatform(sim *des.Sim, store *objectstore.Service, rate float64) (*faas.Platform, error) {
	return faas.New(sim, store, faas.Config{
		ColdStart:          50 * time.Millisecond,
		WarmStart:          5 * time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   500,
		BillingGranularity: 100 * time.Millisecond,
		FailureRate:        rate,
	})
}

func TestHierSortWithRetries(t *testing.T) {
	// Hierarchical shuffle composes with the fault policy: inject
	// failures and let retries recover.
	sim := des.New(5)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   0,
		PerConnBandwidth: 1e12,
		ReadOpsPerSec:    1e9,
		WriteOpsPerSec:   1e9,
		OpsBurst:         1e9,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := newFaultyPlatform(sim, store, 0.1)
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	op, err := NewOperator(pf, store, nil)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 47, Sorted: false})
	var sorted []bed.Record
	var sortErr error
	sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		if err := c.Put(p, "in", "data.bed", payload.RealNoCopy(bed.Marshal(recs))); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		spec := hierSpec(8, 4)
		spec.MaxRetries = 10
		var res Result
		res, sortErr = op.Sort(p, spec)
		if sortErr != nil {
			return
		}
		var all []bed.Record
		for _, k := range res.OutputKeys {
			pl, err := c.Get(p, "out", k)
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			raw, _ := pl.Bytes()
			part, err := bed.Unmarshal(raw)
			if err != nil {
				t.Errorf("parse: %v", err)
				return
			}
			all = append(all, part...)
		}
		sorted = all
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr != nil {
		t.Fatalf("two-level Sort with faults: %v", sortErr)
	}
	if !bed.IsSorted(sorted) || len(sorted) != len(recs) {
		t.Fatal("faulty hierarchical sort incorrect")
	}
	if pf.Meter().Retries == 0 {
		t.Error("no retries metered at 10% failure rate")
	}
}
