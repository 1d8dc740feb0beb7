package autoplan

import (
	"strings"
	"testing"
	"time"
)

// faultEnv is flipEnv with the zone-outage prior dialed in.
func faultEnv(outagePerHour float64) Env {
	env := flipEnv()
	env.ZoneOutagePerHour = outagePerHour
	return env
}

// TestFaultPenaltyRaisesStoreStrategies: dialing zone outages up, and so
// the store brownouts they open, must make every store-touching
// candidate slower and pricier than its fault-free twin, and never flip
// a candidate infeasible.
func TestFaultPenaltyRaisesStoreStrategies(t *testing.T) {
	wl := flipWorkload(64 << 30)
	clean, err := Plan(wl, flipEnv(), Objective{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Plan(wl, faultEnv(30), Objective{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Candidates) != len(faulty.Candidates) {
		t.Fatalf("candidate tables diverge: %d vs %d", len(clean.Candidates), len(faulty.Candidates))
	}
	checked := 0
	for i, cc := range clean.Candidates {
		fc := faulty.Candidates[i]
		if !cc.Same(fc) || !cc.Feasible {
			continue
		}
		if !fc.Feasible {
			t.Errorf("%s became infeasible under outages: %s", fc.Config(), fc.Reason)
			continue
		}
		if fc.Time < cc.Time {
			t.Errorf("%s: outages shortened predicted time %v -> %v", fc.Config(), cc.Time, fc.Time)
		}
		if fc.CostUSD < cc.CostUSD {
			t.Errorf("%s: outages cut predicted cost %.6f -> %.6f", fc.Config(), cc.CostUSD, fc.CostUSD)
		}
		if fc.Time > cc.Time {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no candidate paid an outage penalty; the fault model is not wired")
	}
}

// TestZoneOutageRaisesSpotRisk: zone outages reclaim spot capacity, so
// the spot VM candidate's expected time must grow with the outage rate
// while the on-demand twin's instance leg is untouched (it only pays
// the store-side correlated brownout, which is shared).
func TestZoneOutageRaisesSpotRisk(t *testing.T) {
	wl := flipWorkload(8 << 30)
	calm, err := Plan(wl, faultEnv(0.01), Objective{})
	if err != nil {
		t.Fatal(err)
	}
	stormy, err := Plan(wl, faultEnv(2), Objective{})
	if err != nil {
		t.Fatal(err)
	}
	find := func(d Decision, spot bool) *Candidate {
		for i := range d.Candidates {
			c := &d.Candidates[i]
			if c.Strategy == VMStaged && c.Spot == spot && c.Feasible {
				return c
			}
		}
		return nil
	}
	calmSpot, stormySpot := find(calm, true), find(stormy, true)
	if calmSpot == nil || stormySpot == nil {
		t.Fatal("no feasible spot VM candidate in the table")
	}
	if stormySpot.Time <= calmSpot.Time {
		t.Errorf("spot time did not grow with outage rate: %v -> %v", calmSpot.Time, stormySpot.Time)
	}
	if stormySpot.CostUSD <= calmSpot.CostUSD {
		t.Errorf("spot cost did not grow with outage rate: %.6f -> %.6f", calmSpot.CostUSD, stormySpot.CostUSD)
	}
}

// TestMultiZonePlacementFlip sweeps the zone-outage rate over a
// cache-only two-zone cloud and asserts the planner's placement flips:
// at negligible rates the cross-zone RTT on every cache hop makes
// single-zone faster, and past some rate the expected demotion rework
// (halved blast radius) dominates and multi-zone wins. The decision
// table must carry both placement variants whenever Zones > 1.
func TestMultiZonePlacementFlip(t *testing.T) {
	wl := flipWorkload(4 << 30) // fits the 2-node cache quota
	pick := func(outagePerHour float64) Candidate {
		env := faultEnv(outagePerHour)
		env.Zones = 2
		env.CrossZoneRTT = 5 * time.Millisecond
		env.VMTypes = nil
		env.NoObjectStorage = true
		env.NoHierarchical = true
		dec, err := Plan(wl, env, Objective{})
		if err != nil {
			t.Fatal(err)
		}
		single, multi := false, false
		for _, c := range dec.Candidates {
			if c.Strategy != CacheBacked || !c.Feasible {
				continue
			}
			if c.MultiZone {
				multi = true
			} else {
				single = true
			}
		}
		if !single || !multi {
			t.Fatalf("rate=%v: table missing a cache placement variant (single=%v multi=%v)",
				outagePerHour, single, multi)
		}
		return dec.Chosen
	}

	calm := pick(0.001)
	if calm.MultiZone {
		t.Errorf("at 0.001 outages/h multi-zone won: the cross-zone RTT should dominate (%s)", calm.Config())
	}

	flipped := false
	for _, rate := range []float64{0.5, 2, 5, 20, 60, 120} {
		if pick(rate).MultiZone {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Error("multi-zone placement never won the sweep; the outage-rework trade is not priced")
	}
}

// TestSingleZoneEnvHasNoMultiZoneCandidates: with one zone (the
// default) the table must not offer a multi-zone placement.
func TestSingleZoneEnvHasNoMultiZoneCandidates(t *testing.T) {
	dec, err := Plan(flipWorkload(4<<30), faultEnv(1), Objective{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dec.Candidates {
		if c.MultiZone {
			t.Errorf("single-zone env produced multi-zone candidate %s", c.Config())
		}
	}
}

// TestSpeculationReadsThePlatformSlowdown: the planner prices the
// straggler tail at the factor the platform draws, Faas.Slowdown. A
// StragglerSlowdown of 1 runs stragglers at full speed, so there is no
// tail to speculate against; the unset 0 is the platform's 3x.
func TestSpeculationReadsThePlatformSlowdown(t *testing.T) {
	for _, c := range []struct {
		slowdown float64
		arm      bool
	}{{1, false}, {0, true}, {3, true}} {
		env := flipEnv()
		env.Faas.StragglerRate = 0.2
		env.Faas.StragglerSlowdown = c.slowdown
		dec, err := Plan(flipWorkload(4e9), env, Objective{})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Chosen.Strategy == VMStaged {
			t.Fatalf("slowdown %g: chose %s, which has no waves to speculate", c.slowdown, dec.Chosen.Config())
		}
		if dec.Speculation.Arm != c.arm {
			t.Errorf("slowdown %g: arm=%v (%s), want %v", c.slowdown, dec.Speculation.Arm, dec.Speculation.Reason, c.arm)
		}
		if c.slowdown == 1 && !strings.HasPrefix(dec.Speculation.Reason, "expected straggler tail 0.00s") {
			t.Errorf("slowdown 1: %q, want no straggler tail", dec.Speculation.Reason)
		}
	}
}
