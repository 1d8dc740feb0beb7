package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/vm"
)

func testTargets(t *testing.T, sim *des.Sim) Targets {
	t.Helper()
	store, err := objectstore.New(sim, objectstore.DefaultConfig())
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	cachePr, err := memcache.NewProvisioner(sim, memcache.DefaultConfig())
	if err != nil {
		t.Fatalf("cache provisioner: %v", err)
	}
	return Targets{VMs: vm.NewProvisioner(sim), Cache: cachePr, Store: store}
}

// TestArmFiresAllKinds: one plan with all three fault classes fires
// in schedule order against live resources — the spot VM is noticed,
// the cache node goes down, and the store brownout raises then
// restores the failure rate.
func TestArmFiresAllKinds(t *testing.T) {
	sim := des.New(1)
	tg := testTargets(t, sim)
	plan := &Plan{Events: []Event{
		{At: 2 * time.Minute, Kind: PreemptVM},
		{At: 3 * time.Minute, Kind: KillCacheNode, Node: 1},
		{At: 4 * time.Minute, Kind: StoreBrownout, Rate: 0.5, Duration: 10 * time.Second},
	}}
	armed, err := plan.Arm(sim, tg)
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}

	var inst *vm.Instance
	var cl *memcache.Cluster
	sim.Spawn("driver", func(p *des.Proc) {
		var err error
		inst, err = tg.VMs.ProvisionSpot(p, "bx2-2x8")
		if err != nil {
			t.Errorf("ProvisionSpot: %v", err)
			return
		}
		cl, err = tg.Cache.ProvisionWarm(p, 3)
		if err != nil {
			t.Errorf("ProvisionWarm: %v", err)
			return
		}
		until := func(at time.Duration) {
			if d := at - p.Now(); d > 0 {
				p.Sleep(d)
			}
		}
		until(2*time.Minute + 5*time.Second) // past the preempt signal
		if !inst.PreemptionNoticed() {
			t.Error("spot instance not noticed after PreemptVM fired")
		}
		until(3*time.Minute + 5*time.Second) // past the cache kill
		if !cl.NodeDown(1) {
			t.Error("cache node 1 not down after KillCacheNode fired")
		}
		until(4*time.Minute + 5*time.Second) // inside the brownout window
		if tg.Store.Brownout() != 0.5 {
			t.Errorf("brownout rate = %g mid-window, want 0.5", tg.Store.Brownout())
		}
		until(4*time.Minute + 15*time.Second) // past the window
		if tg.Store.Brownout() != 0 {
			t.Errorf("brownout rate = %g after window, want 0 (restored)", tg.Store.Brownout())
		}
		cl.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	fired := armed.Fired()
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3:\n%s", len(fired), armed)
	}
	for i, want := range []string{"preempting spot", "killed node 1 of 3", "brownout rate=0.50"} {
		if !strings.Contains(fired[i].Outcome, want) {
			t.Errorf("event %d outcome %q, want %q", i, fired[i].Outcome, want)
		}
	}
	if s := armed.String(); !strings.Contains(s, "preempt-vm") || !strings.Contains(s, "kill-cache-node") {
		t.Errorf("fired log rendering:\n%s", s)
	}
}

// TestFireNoOps: events aimed at absent or empty resource layers
// record no-op outcomes instead of failing the run.
func TestFireNoOps(t *testing.T) {
	sim := des.New(1)
	tg := testTargets(t, sim) // live layers, but nothing provisioned
	plan := &Plan{Events: []Event{
		{At: time.Second, Kind: PreemptVM},
		{At: time.Second, Kind: KillCacheNode},
		{At: time.Second, Kind: PreemptVM},
	}}
	none := &Plan{Events: []Event{
		{At: time.Second, Kind: PreemptVM},
		{At: time.Second, Kind: KillCacheNode},
		{At: time.Second, Kind: StoreBrownout, Rate: 0.5, Duration: time.Second},
		{At: time.Second, Kind: ZoneOutage, Zone: "zone-a", Duration: time.Second},
		{At: time.Second, Kind: Kind(99)},
	}}
	armed, err := plan.Arm(sim, tg)
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	unarmed, err := none.Arm(sim, Targets{})
	if err != nil {
		t.Fatalf("Arm(no targets): %v", err)
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	for _, f := range append(armed.Fired(), unarmed.Fired()...) {
		if !strings.Contains(f.Outcome, "no-op") {
			t.Errorf("%v outcome = %q, want a no-op", f.Event.Kind, f.Outcome)
		}
	}
}

// TestPickVictimPrefersSpot: with both capacity classes running, the
// provider reclaims the interruptible instance, and a second signal
// moves on to the next victim instead of re-noticing the first.
func TestPickVictimPrefersSpot(t *testing.T) {
	sim := des.New(1)
	pr := vm.NewProvisioner(sim)
	var onDemand, spot *vm.Instance
	sim.Spawn("driver", func(p *des.Proc) {
		var err error
		onDemand, err = pr.Provision(p, "bx2-2x8")
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		spot, err = pr.ProvisionSpot(p, "bx2-2x8")
		if err != nil {
			t.Errorf("ProvisionSpot: %v", err)
			return
		}
		if v := pickVictim(pr); v != spot {
			t.Error("victim is not the spot instance")
		}
		spot.Preempt()
		if v := pickVictim(pr); v != onDemand {
			t.Error("second victim is not the remaining on-demand instance")
		}
		onDemand.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	if PreemptVM.String() != "preempt-vm" || KillCacheNode.String() != "kill-cache-node" ||
		StoreBrownout.String() != "store-brownout" || ZoneOutage.String() != "zone-outage" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown kind not numbered")
	}
}

// TestOverlappingBrownouts is the regression test for the restore
// race: a first window's timer used to set the rate back to 0 even
// while a second, longer window was still open. The generation guard
// must keep the second window's rate live until its own timer fires.
func TestOverlappingBrownouts(t *testing.T) {
	sim := des.New(1)
	tg := testTargets(t, sim)
	plan := &Plan{Events: []Event{
		{At: 1 * time.Second, Kind: StoreBrownout, Rate: 0.3, Duration: 10 * time.Second},
		{At: 5 * time.Second, Kind: StoreBrownout, Rate: 0.7, Duration: 20 * time.Second},
	}}
	if _, err := plan.Arm(sim, tg); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	sim.Spawn("probe", func(p *des.Proc) {
		p.Sleep(12 * time.Second) // first window's restore timer has fired
		if got := tg.Store.Brownout(); got != 0.7 {
			t.Errorf("brownout = %g after first window expired, want 0.7 (second window still open)", got)
		}
		p.Sleep(15 * time.Second) // past the second window's close at t=25s
		if got := tg.Store.Brownout(); got != 0 {
			t.Errorf("brownout = %g after both windows, want 0", got)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestValidate: structurally bad events are rejected at arm time with
// typed errors naming the offending event, instead of being silently
// clamped or defaulted at fire time.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want error
	}{
		{"negative time", Event{At: -time.Second, Kind: PreemptVM}, ErrNegativeTime},
		{"rate above one", Event{At: 0, Kind: StoreBrownout, Rate: 1.5, Duration: time.Second}, ErrBadRate},
		{"negative rate", Event{At: 0, Kind: StoreBrownout, Rate: -0.1, Duration: time.Second}, ErrBadRate},
		{"no duration", Event{At: 0, Kind: StoreBrownout, Rate: 0.5}, ErrBadDuration},
		{"negative node", Event{At: 0, Kind: KillCacheNode, Node: -1}, ErrBadNode},
		{"no zone", Event{At: 0, Kind: ZoneOutage, Duration: time.Second}, ErrBadZone},
		{"outage no duration", Event{At: 0, Kind: ZoneOutage, Zone: "zone-a"}, ErrBadDuration},
	}
	for _, tc := range cases {
		plan := &Plan{Events: []Event{{At: 0, Kind: PreemptVM}, tc.ev}}
		err := plan.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
			continue
		}
		var evErr *EventError
		if !errors.As(err, &evErr) || evErr.Index != 1 {
			t.Errorf("%s: error does not name event 1: %v", tc.name, err)
		}
		sim := des.New(1)
		if _, armErr := plan.Arm(sim, Targets{}); !errors.Is(armErr, tc.want) {
			t.Errorf("%s: Arm = %v, want validation failure %v", tc.name, armErr, tc.want)
		}
	}
	good := &Plan{Events: []Event{
		{At: 0, Kind: PreemptVM},
		{At: time.Second, Kind: KillCacheNode, Node: 3},
		{At: 2 * time.Second, Kind: StoreBrownout, Rate: 1.0, Duration: time.Second},
		{At: 3 * time.Second, Kind: ZoneOutage, Zone: "zone-b", Rate: 0.25, Duration: time.Minute},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestZoneOutageFires: an outage atomically reclaims the zone's spot
// capacity, kills the cache cluster hosted there, opens the correlated
// brownout, and everything placed afterwards lands in a surviving
// zone; the failed zone reopens when the window closes.
func TestZoneOutageFires(t *testing.T) {
	sim := des.New(1)
	tg := testTargets(t, sim)
	tg.VMs.Zones().SetZones("zone-a", "zone-b")
	tg.Cache.Zones().SetZones("zone-a", "zone-b")
	tg.Store.SetZone("zone-a")
	plan := &Plan{Events: []Event{
		{At: 5 * time.Minute, Kind: ZoneOutage, Zone: "zone-a", Rate: 0.4, Duration: 2 * time.Minute},
	}}
	armed, err := plan.Arm(sim, tg)
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	sim.Spawn("driver", func(p *des.Proc) {
		spot, err := tg.VMs.ProvisionSpot(p, "bx2-2x8")
		if err != nil {
			t.Errorf("ProvisionSpot: %v", err)
			return
		}
		onDemand, err := tg.VMs.Provision(p, "bx2-2x8")
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		cl, err := tg.Cache.ProvisionWarm(p, 3)
		if err != nil {
			t.Errorf("ProvisionWarm: %v", err)
			return
		}
		if spot.Zone() != "zone-a" || cl.Zone() != "zone-a" {
			t.Errorf("placement: spot in %q, cluster in %q, want zone-a", spot.Zone(), cl.Zone())
		}
		until := func(at time.Duration) {
			if d := at - p.Now(); d > 0 {
				p.Sleep(d)
			}
		}
		until(5*time.Minute + time.Second) // inside the outage
		if !spot.Preempted() {
			t.Error("spot instance not reclaimed by the zone outage")
		}
		if onDemand.Stopped() {
			t.Error("on-demand instance should ride out the outage")
		}
		if !cl.Dead() {
			t.Errorf("cache cluster not fully dead: %d/%d nodes down", cl.DownNodes(), cl.Nodes())
		}
		if got := tg.Store.Brownout(); got != 0.4 {
			t.Errorf("correlated brownout = %g, want 0.4", got)
		}
		// Re-provisioning mid-outage must land in the surviving zone.
		spot2, err := tg.VMs.Provision(p, "bx2-2x8")
		if err != nil {
			t.Errorf("re-provision during outage: %v", err)
			return
		}
		if spot2.Zone() != "zone-b" {
			t.Errorf("replacement landed in %q, want zone-b", spot2.Zone())
		}
		cl2, err := tg.Cache.ProvisionWarm(p, 2)
		if err != nil {
			t.Errorf("cache re-provision during outage: %v", err)
			return
		}
		if cl2.Zone() != "zone-b" {
			t.Errorf("replacement cluster landed in %q, want zone-b", cl2.Zone())
		}
		until(7*time.Minute + 2*time.Second) // past the window
		if tg.Store.Brownout() != 0 {
			t.Errorf("brownout = %g after the outage window, want 0", tg.Store.Brownout())
		}
		if tg.VMs.Zones().ZoneDown("zone-a") || tg.Cache.Zones().ZoneDown("zone-a") {
			t.Error("zone-a still marked down after the window")
		}
		spot2.Stop()
		onDemand.Stop()
		cl.Stop()
		cl2.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	fired := armed.Fired()
	if len(fired) != 1 {
		t.Fatalf("fired %d events, want 1:\n%s", len(fired), armed)
	}
	for _, want := range []string{"zone zone-a out", "reclaimed 1 spot", "killed 1 cache cluster", "store brownout rate=0.40"} {
		if !strings.Contains(fired[0].Outcome, want) {
			t.Errorf("outcome %q missing %q", fired[0].Outcome, want)
		}
	}
}
