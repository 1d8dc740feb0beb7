package autoplan

import (
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// flipEnv is a cloud where the cost model predicts clean strategy
// bands: a warm two-node cache quota serves small volumes, the store's
// aggregate-bandwidth plateau makes the hierarchy's extra pass a bad
// trade at mid volumes, and the memory-floor-forced worker counts of
// huge volumes make the all-to-all's w^2 requests dominate.
func flipEnv() Env {
	return Env{
		Store: shuffle.StoreProfile{
			RequestLatency:     30 * time.Millisecond,
			PerConnBandwidth:   80e6,
			AggregateBandwidth: 10e9,
			ReadOpsPerSec:      3000,
			WriteOpsPerSec:     3000,
		},
		Faas:     faas.Config{MemoryMB: 2048},
		HasCache: true,
		Cache: memcache.Config{
			NodeMemoryBytes:  13 << 30,
			RequestLatency:   500 * time.Microsecond,
			PerConnBandwidth: 600e6,
			NodeBandwidth:    5e9,
			NodeOpsPerSec:    90000,
			// No ProvisionTime: the cluster is warm.
			NodeHourlyUSD: 0.311,
		},
		CacheMaxNodes: 2,
		VMTypes:       vm.Catalog(),
		VM:            vm.Leg{Setup: 28 * time.Second, SortBps: 270e6},
		Prices:        billing.Default(),
	}
}

func flipWorkload(dataBytes int64) Workload {
	return Workload{PlanInput: shuffle.PlanInput{
		DataBytes:      dataBytes,
		MaxWorkers:     1024,
		WorkerMemBytes: 2048 << 20,
		PartitionBps:   55e6,
		MergeBps:       55e6,
		Startup:        time.Second,
	}}
}

// TestStrategyFlipsWithVolume sweeps the data volume from 1 GB to 1 TB
// and asserts the chosen strategy flips where the cost model says it
// should: small volumes fit the warm cache quota, mid volumes are
// fastest through the plain all-to-all (the hierarchy's extra pass
// loses once the store's aggregate bandwidth is the bottleneck), and
// huge volumes — where the per-function memory floor forces worker
// counts whose w^2 request term dominates — go hierarchical.
func TestStrategyFlipsWithVolume(t *testing.T) {
	env := flipEnv()
	cases := []struct {
		gb   float64
		want Strategy
	}{
		{1, CacheBacked},
		{4, CacheBacked},
		{16, CacheBacked},
		{64, ObjectStorage},
		{100, ObjectStorage},
		{250, ObjectStorage},
		{1000, Hierarchical},
	}
	for _, tc := range cases {
		dec, err := Plan(flipWorkload(int64(tc.gb*1e9)), env, Objective{Goal: MinTime})
		if err != nil {
			t.Fatalf("%.0f GB: %v", tc.gb, err)
		}
		if dec.Chosen.Strategy != tc.want {
			t.Errorf("%.0f GB: chose %v (%s), want %v\n%s",
				tc.gb, dec.Chosen.Strategy, dec.Chosen.Config(), tc.want, dec)
		}
	}
}

// TestCacheQuotaGatesCacheFamily: volumes beyond the node quota must
// mark every cache candidate infeasible, with a reason.
func TestCacheQuotaGatesCacheFamily(t *testing.T) {
	dec, err := Plan(flipWorkload(100e9), flipEnv(), Objective{})
	if err != nil {
		t.Fatal(err)
	}
	var sawCache bool
	for _, c := range dec.Candidates {
		if c.Strategy != CacheBacked {
			continue
		}
		sawCache = true
		if c.Feasible {
			t.Errorf("cache candidate %s feasible at 100 GB with a 2-node quota", c.Config())
		}
		if c.Reason == "" {
			t.Errorf("infeasible cache candidate %s has no reason", c.Config())
		}
	}
	if !sawCache {
		t.Fatal("no cache candidates enumerated")
	}
}

// TestMinCostPrefersCheapest: under MinCost the chosen candidate's
// cost must be the minimum over feasible candidates.
func TestMinCostPrefersCheapest(t *testing.T) {
	dec, err := Plan(flipWorkload(4e9), flipEnv(), Objective{Goal: MinCost})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dec.Candidates {
		if c.Feasible && c.CostUSD < dec.Chosen.CostUSD {
			t.Errorf("chose $%.6f but %v (%s) costs $%.6f",
				dec.Chosen.CostUSD, c.Strategy, c.Config(), c.CostUSD)
		}
	}
}

// TestMinCostWithinBound: the chosen plan must meet the bound when any
// candidate can, and minimize cost among those that do.
func TestMinCostWithinBound(t *testing.T) {
	obj := Objective{Goal: MinCostWithin, TimeBound: 30 * time.Second}
	dec, err := Plan(flipWorkload(4e9), flipEnv(), obj)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen.Time > obj.TimeBound {
		t.Fatalf("chosen plan takes %v, bound %v", dec.Chosen.Time, obj.TimeBound)
	}
	for _, c := range dec.Candidates {
		if c.Feasible && c.Time <= obj.TimeBound && c.CostUSD < dec.Chosen.CostUSD {
			t.Errorf("chose $%.6f but %v (%s) meets the bound at $%.6f",
				dec.Chosen.CostUSD, c.Strategy, c.Config(), c.CostUSD)
		}
	}
}

// TestMinCostWithinImpossibleBoundFallsBackToFastest: an unmeetable
// bound degrades to MinTime instead of failing.
func TestMinCostWithinImpossibleBoundFallsBackToFastest(t *testing.T) {
	obj := Objective{Goal: MinCostWithin, TimeBound: time.Millisecond}
	dec, err := Plan(flipWorkload(4e9), flipEnv(), obj)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dec.Candidates {
		if c.Feasible && c.Time < dec.Chosen.Time {
			t.Errorf("fallback chose %v but %v (%s) is faster at %v",
				dec.Chosen.Time, c.Strategy, c.Config(), c.Time)
		}
	}
}

// TestPinnedWorkersCollapseTheSweep: Workload.Workers fixes the
// parallelism of every function-family candidate.
func TestPinnedWorkersCollapseTheSweep(t *testing.T) {
	wl := flipWorkload(4e9)
	wl.Workers = 32
	dec, err := Plan(wl, flipEnv(), Objective{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dec.Candidates {
		if c.Strategy != VMStaged && c.Workers != 32 {
			t.Errorf("%v candidate at w=%d, want pinned 32", c.Strategy, c.Workers)
		}
	}
}

// TestPlanErrors covers the planner's failure modes.
func TestPlanErrors(t *testing.T) {
	env := flipEnv()
	if _, err := Plan(Workload{}, env, Objective{}); err == nil {
		t.Error("no error for zero data size")
	}
	if _, err := Plan(flipWorkload(1e9), Env{}, Objective{}); err == nil {
		t.Error("no error for empty store profile")
	}
	// A platform needs a memory grant to run at all (faas.New refuses
	// none), so the planner refuses to price one without it.
	for _, mb := range []int{0, -512} {
		noGrant := env
		noGrant.Faas.MemoryMB = mb
		_, err := Plan(flipWorkload(1e9), noGrant, Objective{})
		if err == nil || !strings.Contains(err.Error(), "memory grant") {
			t.Errorf("MemoryMB %d: err = %v", mb, err)
		}
	}
	// A bound that is not positive is no bound: refuse rather than plan
	// plain min-cost in silence.
	for _, bound := range []time.Duration{0, -90 * time.Second} {
		_, err := Plan(flipWorkload(1e9), env, Objective{Goal: MinCostWithin, TimeBound: bound})
		if err == nil || !strings.Contains(err.Error(), "positive time bound") {
			t.Errorf("MinCostWithin with bound %v: err = %v", bound, err)
		}
	}
	// Memory floor above MaxWorkers with no VM big enough: nothing to
	// enumerate.
	wl := flipWorkload(1e12)
	wl.MaxWorkers = 8
	noVM := env
	noVM.VMTypes = nil
	noVM.HasCache = false
	if _, err := Plan(wl, noVM, Objective{}); err == nil {
		t.Error("no error when every family is impossible")
	}
}

// TestVMOnlyEnv: with the function families out of reach (memory floor
// above MaxWorkers), the planner must fall back to a fitting VM.
func TestVMOnlyEnv(t *testing.T) {
	wl := flipWorkload(60e9) // needs >= 47 workers, VM bx2-16x64 fits
	wl.MaxWorkers = 8
	env := flipEnv()
	env.HasCache = false
	dec, err := Plan(wl, env, Objective{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen.Strategy != VMStaged {
		t.Fatalf("chose %v, want vm", dec.Chosen.Strategy)
	}
	if dec.Chosen.Instance != "bx2-16x64" && dec.Chosen.Instance != "bx2-32x128" {
		t.Errorf("chose instance %s, want one that fits 60 GB", dec.Chosen.Instance)
	}
}

// TestRenderMarksChosen: the decision table must include every
// candidate and mark the chosen row.
func TestRenderMarksChosen(t *testing.T) {
	dec, err := Plan(flipWorkload(4e9), flipEnv(), Objective{})
	if err != nil {
		t.Fatal(err)
	}
	s := dec.String()
	if !strings.Contains(s, "<- chosen") {
		t.Errorf("no chosen marker in:\n%s", s)
	}
	extra := 2 // title + header
	if dec.Speculation.Reason != "" {
		extra++ // speculation verdict line
	}
	if got := strings.Count(s, "\n") - extra; got != len(dec.Candidates) {
		t.Errorf("table has %d rows, want %d candidates", got, len(dec.Candidates))
	}
	if !strings.Contains(dec.Summary(), "auto-planned") {
		t.Errorf("summary %q", dec.Summary())
	}
}
