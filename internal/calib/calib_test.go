package calib

import (
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

func TestProfilesBuildRigs(t *testing.T) {
	for _, p := range []Profile{Paper(), Local()} {
		rig, err := NewRig(p)
		if err != nil {
			t.Fatalf("%s: NewRig: %v", p.Name, err)
		}
		if rig.Exec == nil || rig.Shuffle == nil || rig.Prov == nil {
			t.Fatalf("%s: rig incompletely wired", p.Name)
		}
	}
}

func TestPaperProfileMatchesSetup(t *testing.T) {
	p := Paper()
	// The paper allocates 2GB functions and uses a bx2-8x32.
	if p.Faas.MemoryMB != 2048 {
		t.Fatalf("MemoryMB = %d, want 2048 (paper §2.3)", p.Faas.MemoryMB)
	}
	if p.InstanceType != "bx2-8x32" {
		t.Fatalf("InstanceType = %s, want bx2-8x32 (paper §2.3)", p.InstanceType)
	}
	// "A few thousand operations/s" (§1).
	if p.Store.ReadOpsPerSec < 1000 || p.Store.ReadOpsPerSec > 10000 {
		t.Fatalf("ReadOpsPerSec = %g, want a few thousand", p.Store.ReadOpsPerSec)
	}
}

func TestLocalProfileIsFast(t *testing.T) {
	paper, local := Paper(), Local()
	if local.Store.RequestLatency >= paper.Store.RequestLatency {
		t.Fatal("Local store latency not reduced")
	}
	if local.Faas.ColdStart >= paper.Faas.ColdStart {
		t.Fatal("Local cold start not reduced")
	}
	if len(local.VMTypes) == 0 {
		t.Fatal("Local has no fast-boot catalog")
	}
	for _, it := range local.VMTypes {
		if it.BootTime > 10*time.Second {
			t.Fatalf("Local %s boot = %v, want fast", it.Name, it.BootTime)
		}
	}
}

func TestSortParamsDerivation(t *testing.T) {
	rig, err := NewRig(Paper())
	if err != nil {
		t.Fatalf("NewRig: %v", err)
	}
	sp := rig.SortParams("in", "k", "out", "pfx/", 8)
	if sp.Workers != 8 || sp.InputBucket != "in" || sp.OutputPrefix != "pfx/" {
		t.Fatalf("SortParams = %+v", sp)
	}
	if sp.WorkerMemBytes != 2048<<20 {
		t.Fatalf("WorkerMemBytes = %d, want 2GiB", sp.WorkerMemBytes)
	}
	if sp.PartitionBps != rig.Profile.PartitionBps {
		t.Fatal("PartitionBps not propagated")
	}
}

// TestVMStrategyDerivation: the VM strategy runs the profile's leg, and
// the planner prices that same leg on the platform the rig runs, so what
// is priced is what executes.
func TestVMStrategyDerivation(t *testing.T) {
	faulty := Paper()
	faulty.Faas.FailureRate, faulty.Faas.StragglerRate, faulty.Faas.StragglerSlowdown = 0.1, 0.05, 4
	for _, p := range []Profile{Paper(), Local(), faulty} {
		rig, err := NewRig(p)
		if err != nil {
			t.Fatalf("NewRig: %v", err)
		}
		vs := rig.VMStrategy()
		if vs.InstanceType != "bx2-8x32" || vs.SortBps != rig.Profile.VMSortBps {
			t.Fatalf("VMStrategy = %+v", vs)
		}
		env := PlanEnv(p)
		if env.VM != vs.Leg {
			t.Errorf("%s: PlanEnv prices the leg %+v, VMStrategy runs %+v", p.Name, env.VM, vs.Leg)
		}
		if env.Faas != rig.Platform.Config() {
			t.Errorf("%s: PlanEnv prices the platform %+v, the rig runs %+v", p.Name, env.Faas, rig.Platform.Config())
		}
	}
}

func TestRigDeterminism(t *testing.T) {
	draw := func() int64 {
		rig, err := NewRig(Paper())
		if err != nil {
			t.Fatalf("NewRig: %v", err)
		}
		var v int64
		rig.Sim.Spawn("d", func(p *des.Proc) { v = p.Rand().Int63() })
		if err := rig.Sim.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return v
	}
	if draw() != draw() {
		t.Fatal("same profile produced different random streams")
	}
}
