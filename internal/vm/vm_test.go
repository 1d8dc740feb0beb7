package vm

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

func TestCatalogLookup(t *testing.T) {
	pr := NewProvisioner(des.New(1))
	it, err := pr.LookupType("bx2-8x32")
	if err != nil {
		t.Fatalf("LookupType: %v", err)
	}
	if it.VCPUs != 8 || it.MemoryGB != 32 {
		t.Fatalf("bx2-8x32 = %+v", it)
	}
	if _, err := pr.LookupType("gpu-monster"); !errors.Is(err, ErrUnknownInstanceType) {
		t.Fatalf("unknown type err = %v", err)
	}
}

func TestProvisionPaysBootTime(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisioner(sim)
	var ready time.Duration
	sim.Spawn("driver", func(p *des.Proc) {
		inst, err := pr.Provision(p, "bx2-8x32")
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		ready = p.Now()
		if inst.BootedAt() != ready {
			t.Errorf("BootedAt = %v, want %v", inst.BootedAt(), ready)
		}
		inst.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if ready != 48*time.Second {
		t.Fatalf("ready at %v, want 48s boot", ready)
	}
}

func TestBillingFromRequestToStop(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisioner(sim)
	var inst *Instance
	sim.Spawn("driver", func(p *des.Proc) {
		var err error
		inst, err = pr.Provision(p, "bx2-8x32") // 48s boot
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		p.Sleep(12 * time.Second)
		inst.Stop()
		p.Sleep(time.Hour) // billing must not keep accruing
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if d := inst.BilledDuration(); d != 60*time.Second {
		t.Fatalf("BilledDuration = %v, want 60s (boot+work)", d)
	}
	want := 60.0 / 3600 * 0.3840
	if c := inst.CostAt(sim.Now()); math.Abs(c-want) > 1e-9 {
		t.Fatalf("Cost = %g, want %g", c, want)
	}
}

func TestStopIdempotent(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisioner(sim)
	sim.Spawn("driver", func(p *des.Proc) {
		inst, _ := pr.Provision(p, "bx2-2x8")
		inst.Stop()
		first := inst.BilledDuration()
		p.Sleep(time.Minute)
		inst.Stop()
		if inst.BilledDuration() != first {
			t.Error("second Stop changed billing")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRunTaskAfterStopFails(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisioner(sim)
	sim.Spawn("driver", func(p *des.Proc) {
		inst, _ := pr.Provision(p, "bx2-2x8")
		inst.Stop()
		if err := inst.RunTask(p, time.Second); !errors.Is(err, ErrStopped) {
			t.Errorf("RunTask on stopped = %v, want ErrStopped", err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRunParallelBoundedByVCPUs(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisioner(sim)
	var elapsed time.Duration
	sim.Spawn("driver", func(p *des.Proc) {
		inst, _ := pr.Provision(p, "bx2-4x16") // 4 vCPUs
		start := p.Now()
		if err := inst.RunParallel(p, 8, time.Second); err != nil {
			t.Errorf("RunParallel: %v", err)
		}
		elapsed = p.Now() - start
		inst.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	// 8 one-second tasks on 4 cores: 2 seconds.
	if math.Abs(elapsed.Seconds()-2.0) > 0.01 {
		t.Fatalf("RunParallel took %v, want ~2s", elapsed)
	}
}

func TestStorageClientNICCap(t *testing.T) {
	sim := des.New(1)
	storeCfg := objectstore.Config{
		RequestLatency:   0,
		PerConnBandwidth: 1e12, // store not the bottleneck
		ReadOpsPerSec:    1e9,
		WriteOpsPerSec:   1e9,
		OpsBurst:         1e9,
	}
	svc, err := objectstore.New(sim, storeCfg)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pr := NewProvisioner(sim)
	var elapsed time.Duration
	sim.Spawn("driver", func(p *des.Proc) {
		inst, _ := pr.Provision(p, "bx2-2x8") // NIC 0.5 GB/s
		c := inst.StorageClient(svc, 1)
		_ = c.CreateBucket(p, "b")
		start := p.Now()
		// 1 GB over a 0.5 GB/s NIC: 2 seconds.
		if err := c.Put(p, "b", "k", payload.Sized(1e9)); err != nil {
			t.Errorf("Put: %v", err)
		}
		elapsed = p.Now() - start
		inst.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if math.Abs(elapsed.Seconds()-2.0) > 0.05 {
		t.Fatalf("NIC-capped put took %v, want ~2s", elapsed)
	}
}

func TestStorageClientSplitsNICAcrossConns(t *testing.T) {
	sim := des.New(1)
	svc, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   0,
		PerConnBandwidth: 1e12,
		ReadOpsPerSec:    1e9,
		WriteOpsPerSec:   1e9,
		OpsBurst:         1e9,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pr := NewProvisioner(sim)
	sim.Spawn("driver", func(p *des.Proc) {
		inst, _ := pr.Provision(p, "bx2-2x8") // NIC 0.5 GB/s
		c := inst.StorageClient(svc, 4)       // 125 MB/s per conn
		if c.FlowCap != 0.5e9/4 {
			t.Errorf("FlowCap = %g, want %g", c.FlowCap, 0.5e9/4)
		}
		inst.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestProvisionerTracksInstances(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisioner(sim)
	sim.Spawn("driver", func(p *des.Proc) {
		a, _ := pr.Provision(p, "bx2-2x8")
		b, _ := pr.Provision(p, "bx2-4x16")
		a.Stop()
		b.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if got := len(pr.Instances()); got != 2 {
		t.Fatalf("Instances = %d, want 2", got)
	}
}

func TestProvisionSpotBillsSpotRate(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisioner(sim)
	var inst *Instance
	sim.Spawn("driver", func(p *des.Proc) {
		var err error
		inst, err = pr.ProvisionSpot(p, "bx2-8x32") // 48s boot
		if err != nil {
			t.Errorf("ProvisionSpot: %v", err)
			return
		}
		if !inst.Spot() {
			t.Error("Spot() = false on a spot instance")
		}
		p.Sleep(12 * time.Second)
		inst.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if r := inst.HourlyRate(); r != 0.1152 {
		t.Fatalf("HourlyRate = %g, want spot 0.1152", r)
	}
	want := 60.0 / 3600 * 0.1152
	if c := inst.CostAt(sim.Now()); math.Abs(c-want) > 1e-9 {
		t.Fatalf("Cost = %g, want %g (60s at the spot rate)", c, want)
	}
}

func TestProvisionSpotNeedsSpotPrice(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisionerWithCatalog(sim, []InstanceType{
		{Name: "nospot", VCPUs: 2, MemoryGB: 8, HourlyUSD: 0.1, BootTime: time.Second, NICBandwidth: 1e9},
	})
	sim.Spawn("driver", func(p *des.Proc) {
		if _, err := pr.ProvisionSpot(p, "nospot"); err == nil {
			t.Error("ProvisionSpot on a type with no spot capacity succeeded")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestPreemptNoticeThenReclaim pins the spot-reclaim protocol: the
// notice is on record at the signal, the instance keeps running (and
// billing) through the notice window, and PreemptionNotice later it
// is stopped with Preempted set and tasks failing ErrPreempted.
func TestPreemptNoticeThenReclaim(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisioner(sim)
	var inst *Instance
	sim.Spawn("driver", func(p *des.Proc) {
		inst, _ = pr.ProvisionSpot(p, "bx2-2x8") // ready at 42s
		p.Sleep(18 * time.Second)                // t=60s
		if inst.PreemptionNoticed() {
			t.Error("noticed before the signal")
		}
		inst.Preempt()
		if !inst.PreemptionNoticed() || inst.Stopped() {
			t.Error("notice window: want noticed but still running")
		}
		// Inside the window the instance still serves work.
		if err := inst.RunTask(p, time.Second); err != nil {
			t.Errorf("RunTask inside notice window: %v", err)
		}
		p.Sleep(PreemptionNotice) // past the reclaim at t=90s
		if !inst.Stopped() || !inst.Preempted() {
			t.Error("after notice window: want stopped and preempted")
		}
		if err := inst.RunTask(p, time.Second); !errors.Is(err, ErrPreempted) || !errors.Is(err, ErrStopped) {
			t.Errorf("RunTask after reclaim = %v, want ErrPreempted (wrapping ErrStopped)", err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if d := inst.BilledDuration(); d != 90*time.Second {
		t.Fatalf("BilledDuration = %v, want 90s (billing runs through the notice window)", d)
	}
}

func TestPreemptIdempotentAndStopWins(t *testing.T) {
	sim := des.New(1)
	pr := NewProvisioner(sim)
	sim.Spawn("driver", func(p *des.Proc) {
		inst, _ := pr.ProvisionSpot(p, "bx2-2x8")
		inst.Preempt()
		inst.Preempt() // second signal is absorbed
		p.Sleep(time.Second)
		inst.Stop() // owner drains and stops inside the window
		stoppedAt := inst.BilledDuration()
		p.Sleep(2 * PreemptionNotice)
		if inst.Preempted() {
			t.Error("owner-stopped instance marked preempted")
		}
		if inst.BilledDuration() != stoppedAt {
			t.Error("reclaim timer re-billed a stopped instance")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}
