package autoplan

import (
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

func standingEnv() Env {
	return Env{
		Store: shuffle.StoreProfile{
			RequestLatency:   10 * time.Millisecond,
			PerConnBandwidth: 100e6,
			ReadOpsPerSec:    3000,
			WriteOpsPerSec:   1500,
		},
		Faas:   faas.Config{MemoryMB: 2048},
		Prices: billing.Default(),
	}
}

func standingWorkload(dataBytes int64) Workload {
	return Workload{PlanInput: shuffle.PlanInput{DataBytes: dataBytes, WorkerMemBytes: 2 << 30, Startup: time.Second}}
}

// TestStandingVMOverridesProfilePin: a session's standing instance is
// considered even when the profile pins a different instance type —
// the already-paid machine must not vanish from the candidate set.
func TestStandingVMOverridesProfilePin(t *testing.T) {
	env := standingEnv()
	env.NoObjectStorage = true
	env.NoHierarchical = true
	env.VMTypes = vm.Catalog()
	env.VM.InstanceType = "bx2-8x32" // the profile's pin
	env.VMStandingType = "bx2-4x16"  // what the session actually runs

	dec, err := Plan(standingWorkload(4e9), env, Objective{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if dec.Chosen.Strategy != VMStaged || dec.Chosen.Instance != "bx2-4x16" {
		t.Fatalf("chosen = %v %q, want the standing bx2-4x16", dec.Chosen.Strategy, dec.Chosen.Instance)
	}
	for _, c := range dec.Candidates {
		if c.Strategy == VMStaged && c.Instance != "bx2-4x16" {
			t.Errorf("non-standing instance %q enumerated", c.Instance)
		}
	}
	// Standing: no boot/setup in the prediction, no instance-hours in
	// the marginal cost (only storage requests + volume remain).
	it := vm.Catalog()[1] // bx2-4x16
	if dec.Chosen.Time >= it.BootTime {
		t.Errorf("standing VM time %v still includes boot (>= %v)", dec.Chosen.Time, it.BootTime)
	}
}

// TestStandingClusterExemptFromProvisioningQuota: CacheMaxNodes caps
// what the planner may provision; an already-running session cluster
// larger than the quota stays usable.
func TestStandingClusterExemptFromProvisioningQuota(t *testing.T) {
	env := standingEnv()
	env.NoObjectStorage = true
	env.NoHierarchical = true
	env.HasCache = true
	env.Cache = memcache.DefaultConfig()
	env.CacheMaxNodes = 1
	env.CacheStandingNodes = 4

	dec, err := Plan(standingWorkload(20e9), env, Objective{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if dec.Chosen.Strategy != CacheBacked || dec.Chosen.CacheNodes != 4 {
		t.Fatalf("chosen = %v nodes=%d, want cache on the 4-node standing cluster",
			dec.Chosen.Strategy, dec.Chosen.CacheNodes)
	}
	// But a volume beyond the standing cluster's capacity is still
	// infeasible: the session cannot grow it mid-job.
	if _, err := Plan(standingWorkload(200e9), env, Objective{}); err == nil {
		t.Error("volume beyond the standing cluster accepted")
	}
}
