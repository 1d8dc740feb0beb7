package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

func soakProcess(seed int64) Process {
	return Process{
		Seed:              seed,
		Horizon:           2 * time.Hour,
		PreemptPerHour:    6,
		CacheKillPerHour:  4,
		BrownoutPerHour:   3,
		ZoneOutagePerHour: 1,
		CacheNodes:        5,
		Zones:             []string{"zone-a", "zone-b"},
	}
}

// TestProcessDeterminism: the same seed and rates generate an
// identical Plan across runs, and arming the two plans over identical
// workloads yields byte-identical fired logs; a different seed
// diverges.
func TestProcessDeterminism(t *testing.T) {
	a, err := soakProcess(7).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := soakProcess(7).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed generated different plans:\n%v\nvs\n%v", a.Events, b.Events)
	}
	if len(a.Events) == 0 {
		t.Fatal("soak process generated no events over a 2h horizon")
	}

	// Full-run determinism: arm each plan against its own fresh rig and
	// run the clock out; the fired logs must render identically.
	logs := make([]string, 2)
	for i, plan := range []*Plan{a, b} {
		sim := des.New(99)
		tg := testTargets(t, sim)
		tg.VMs.Zones().SetZones("zone-a", "zone-b")
		tg.Cache.Zones().SetZones("zone-a", "zone-b")
		armed, err := plan.Arm(sim, tg)
		if err != nil {
			t.Fatalf("Arm: %v", err)
		}
		sim.Spawn("workload", func(p *des.Proc) {
			if _, err := tg.VMs.ProvisionSpot(p, "bx2-2x8"); err != nil {
				t.Errorf("ProvisionSpot: %v", err)
			}
			if _, err := tg.Cache.ProvisionWarm(p, 3); err != nil {
				t.Errorf("ProvisionWarm: %v", err)
			}
			p.Sleep(2 * time.Hour)
		})
		if err := sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		logs[i] = armed.String()
	}
	if logs[0] != logs[1] {
		t.Errorf("same seed produced different fired logs:\n%s\nvs\n%s", logs[0], logs[1])
	}
	if !strings.Contains(logs[0], "zone-outage") {
		t.Errorf("soak log never fired a zone outage:\n%s", logs[0])
	}

	c, err := soakProcess(8).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds generated identical plans")
	}
}

// TestProcessClassIndependence: disabling one class must not reshuffle
// another class's arrival times — each class draws from its own
// seed-derived stream.
func TestProcessClassIndependence(t *testing.T) {
	full, err := soakProcess(7).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	only := soakProcess(7)
	only.PreemptPerHour = 0
	only.BrownoutPerHour = 0
	only.ZoneOutagePerHour = 0
	kills, err := only.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var fromFull []Event
	for _, ev := range full.Events {
		if ev.Kind == KillCacheNode {
			fromFull = append(fromFull, ev)
		}
	}
	if !reflect.DeepEqual(fromFull, kills.Events) {
		t.Errorf("cache-kill arrivals changed when other classes were disabled:\n%v\nvs\n%v",
			fromFull, kills.Events)
	}
}

// TestProcessRateScaling: a sanity bound that generated arrival counts
// track the configured Poisson rates over a long horizon.
func TestProcessRateScaling(t *testing.T) {
	pr := Process{Seed: 3, Horizon: 100 * time.Hour, PreemptPerHour: 2}
	plan, err := pr.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n := len(plan.Events)
	// Poisson(200): ±5 sigma is ~±71.
	if n < 130 || n > 270 {
		t.Errorf("got %d arrivals for rate 2/h over 100h, want ~200", n)
	}
	for i := 1; i < n; i++ {
		if plan.Events[i].At < plan.Events[i-1].At {
			t.Fatal("generated plan not time-sorted")
		}
	}
}

func TestProcessRejectsNoHorizon(t *testing.T) {
	if _, err := (Process{PreemptPerHour: 1}).Generate(); err == nil {
		t.Error("Generate with no horizon should fail")
	}
}

// TestProcessSeedSweep: a quick property pass — any seed yields a
// valid, sorted plan whose every event survives Validate.
func TestProcessSeedSweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		plan, err := soakProcess(seed).Generate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("seed %d: generated plan invalid: %v", seed, err)
		}
		_ = fmt.Sprintf("%v", plan.Events)
	}
}
