package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

const chaosTestBytes = int64(1000e6)

func chaosCell(t *testing.T, res ChaosResult, kind StrategyKind, fault string) ChaosCell {
	t.Helper()
	for _, c := range res.Rows {
		if c.Kind == kind && c.Fault == fault {
			return c
		}
	}
	t.Fatalf("no cell %v/%v", kind, fault)
	return ChaosCell{}
}

// metersUSD prices a rig's global meters as they read now, the store's
// given as sm, from which the caller has taken its driver's requests:
// every invocation and request, the stored volume, and every instance
// and cluster for its billed lifetime. It is the independent route to a
// bill.
func metersUSD(rig *calib.Rig, sm objectstore.Metrics) float64 {
	pb := rig.Profile.Prices
	return pb.FunctionsCost(rig.Platform.Meter()) + pb.StorageCost(sm) +
		pb.VMCost(rig.Prov.Instances()) + pb.CacheCost(rig.CacheProv.Clusters())
}

// meteredUSD is a pipeline run's bill as the global meters read it, less
// what the driver did (two buckets and the input PUT, three class A
// requests, with nothing stored before them) and the stored volume's
// accrual after the run ended, while trailing timers drained the clock.
func meteredUSD(r PipelineRun) float64 {
	sm := r.rig.Store.Metrics()
	sm.ClassAOps -= 3
	sm.ByteSeconds -= float64(r.rig.Store.StoredBytes()) * (r.rig.Sim.Now() - r.Report.End).Seconds()
	return metersUSD(r.rig, sm)
}

// checkMetered holds a cell's bill to the global meters.
func checkMetered(t *testing.T, c ChaosCell) {
	t.Helper()
	if got, want := c.Report.TotalUSD(), meteredUSD(c.PipelineRun); math.Abs(got-want) > 1e-9*want {
		t.Errorf("cell %v/%v: run bill $%.12f, global meters x price book $%.12f", c.Kind, c.Fault, got, want)
	}
}

// TestChaosMatrix is the graceful-degradation contract: every cell of
// the strategy x fault matrix completes, the targeted faults actually
// bite (restarts / rework / fallbacks metered), and no cell's money
// leaks: the run's bill is what the global meters priced.
func TestChaosMatrix(t *testing.T) {
	leaks := destest.NoLeakedGoroutines(t)
	res, err := ChaosMatrix(calib.Paper(), chaosTestBytes, 8)
	if err != nil {
		t.Fatalf("ChaosMatrix: %v", err)
	}
	leaks() // preempted, restarted and fallen-back runs leave no process behind
	if want := len(chaosStrategies) * len(chaosFaults); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, c := range res.Rows {
		if c.Err != nil {
			t.Errorf("cell %v/%v did not complete", c.Kind, c.Fault)
		}
		if math.Abs(c.Report.TotalUSD()-c.SessionUSD) > 1e-9 {
			t.Errorf("cell %v/%v: run attribution $%.12f != session bill $%.12f",
				c.Kind, c.Fault, c.Report.TotalUSD(), c.SessionUSD)
		}
		checkMetered(t, c)
	}

	// The spot VM run must actually lose its instance and recover on a
	// restarted leg, with the re-read volume metered.
	vmCell := chaosCell(t, res, VMSupported, "vm-preempt")
	if vmCell.Report.Restarts() == 0 {
		t.Errorf("vm/preempt cell shows no restarts:\n%s", res)
	}
	if vmCell.Report.ReworkBytes() == 0 {
		t.Errorf("vm/preempt cell shows no rework:\n%s", res)
	}

	// The cache run must reroute slabs through object storage rather
	// than fail, and stay within 1.5x of its fault-free makespan.
	cacheCell := chaosCell(t, res, CacheSupported, "cache-node-kill")
	if cacheCell.FallbackSlabs() == 0 {
		t.Errorf("cache/node-kill cell shows no fallback slabs:\n%s", res)
	}
	if cacheCell.Slowdown > 1.5 {
		t.Errorf("cache/node-kill slowdown %.2fx exceeds 1.5x:\n%s", cacheCell.Slowdown, res)
	}

	// Baselines are clean runs.
	for _, kind := range chaosStrategies {
		base := chaosCell(t, res, kind, "none")
		if base.Report.Restarts() != 0 || base.Report.ReworkBytes() != 0 || base.FallbackSlabs() != 0 {
			t.Errorf("baseline %v shows recovery activity: %+v", kind, base)
		}
	}
}

// TestChaosMatrixDeterministicAcrossSeeds: the matrix completes and
// keeps its attribution identity under different randomness seeds (the
// CI gate runs these under -race).
func TestChaosMatrixSeeds(t *testing.T) {
	for _, seed := range []int64{1, 42, 20211206} {
		profile := calib.Paper()
		profile.Seed = seed
		res, err := ChaosMatrix(profile, 500e6, 8)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range res.Rows {
			if c.Err != nil {
				t.Errorf("seed %d: cell %v/%v did not complete", seed, c.Kind, c.Fault)
			}
			if math.Abs(c.Report.TotalUSD()-c.SessionUSD) > 1e-9 {
				t.Errorf("seed %d: cell %v/%v attribution drift", seed, c.Kind, c.Fault)
			}
			checkMetered(t, c)
		}
	}
}

// TestSpotDecisionFlip: under MinCost the planner takes the spot
// discount while interruptions are rare and flips to on-demand when
// the expected rework outprices it.
func TestSpotDecisionFlip(t *testing.T) {
	res, err := SpotDecisionFlip(calib.Paper(), 0, nil)
	if err != nil {
		t.Fatalf("SpotDecisionFlip: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if res.Rows[0].Chosen != "spot" {
		t.Errorf("at rate %.2f/h chose %s, want spot:\n%s",
			res.Rows[0].PerHour, res.Rows[0].Chosen, res)
	}
	if last := res.Rows[len(res.Rows)-1]; last.Chosen != "on-demand" {
		t.Errorf("at rate %.2f/h chose %s, want on-demand:\n%s",
			last.PerHour, last.Chosen, res)
	}
	var flipped bool
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1].Chosen == "spot" && res.Rows[i].Chosen == "on-demand" {
			flipped = true
		}
		if res.Rows[i].With.USD < res.Rows[i-1].With.USD {
			t.Errorf("spot expected cost fell as interrupts rose: %.6f -> %.6f at %.2f/h",
				res.Rows[i-1].With.USD, res.Rows[i].With.USD, res.Rows[i].PerHour)
		}
		if res.Rows[i].With.Time < res.Rows[i-1].With.Time {
			t.Errorf("spot expected time fell as interrupts rose at %.2f/h", res.Rows[i].PerHour)
		}
	}
	if !flipped {
		t.Errorf("no spot -> on-demand flip in sweep:\n%s", res)
	}
}

func TestChaosRenderings(t *testing.T) {
	res, err := ChaosMatrix(calib.Paper(), 500e6, 4)
	if err != nil {
		t.Fatalf("ChaosMatrix: %v", err)
	}
	out := res.String()
	for _, want := range []string{"vm-preempt", "cache-node-kill", "store-brownout", "slowdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix rendering missing %q:\n%s", want, out)
		}
	}
	flip, err := SpotDecisionFlip(calib.Paper(), 0, []float64{0.05, 60})
	if err != nil {
		t.Fatalf("SpotDecisionFlip: %v", err)
	}
	fout := flip.String()
	for _, want := range []string{"interrupts/h", "chosen", "spot"} {
		if !strings.Contains(fout, want) {
			t.Errorf("flip rendering missing %q:\n%s", want, fout)
		}
	}
}

// TestZoneChaos is the zone-level graceful-degradation contract: every
// cell of the strategy x {outage, soak} matrix completes, the outage
// actually bites the strategies whose substrate it hosts, recovery
// stays within bounds, and no cell's money leaks.
func TestZoneChaos(t *testing.T) {
	leaks := destest.NoLeakedGoroutines(t)
	res, err := ZoneChaos(calib.Paper(), chaosTestBytes, 8, 7)
	if err != nil {
		t.Fatalf("ZoneChaos: %v", err)
	}
	leaks()
	if want := len(chaosStrategies) * len(zoneFaults); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, c := range res.Rows {
		if c.Err != nil {
			t.Errorf("cell %v/%v did not complete: %v", c.Kind, c.Fault, c.Err)
		}
		if math.Abs(c.Report.TotalUSD()-c.SessionUSD) > 1e-9 {
			t.Errorf("cell %v/%v: run attribution $%.12f != session bill $%.12f",
				c.Kind, c.Fault, c.Report.TotalUSD(), c.SessionUSD)
		}
		checkMetered(t, c)
	}

	// The spot VM loses its zone-a instance and re-provisions in the
	// survivor, with the redone leg metered.
	vmCell := chaosCell(t, res, VMSupported, "zone-outage")
	if vmCell.Report.Restarts() == 0 || vmCell.Report.ReworkBytes() == 0 {
		t.Errorf("vm/zone-outage shows no metered recovery:\n%s", res)
	}

	// The cache cluster dies whole — total loss, not one node — and the
	// run demotes to the object-store path within the overhead bound.
	cacheCell := chaosCell(t, res, CacheSupported, "zone-outage")
	if cacheCell.FallbackSlabs() == 0 {
		t.Errorf("cache/zone-outage shows no fallback slabs:\n%s", res)
	}
	if cacheCell.Slowdown > 2.0 {
		t.Errorf("cache/zone-outage slowdown %.2fx exceeds 2.0x:\n%s", cacheCell.Slowdown, res)
	}

	// Soak cells must actually see events, and the high soak at least
	// as many as the low (same seed, scaled rates).
	for _, kind := range chaosStrategies {
		low := chaosCell(t, res, kind, "soak-low")
		high := chaosCell(t, res, kind, "soak-high")
		if len(low.Fired) == 0 {
			t.Errorf("%v/soak-low fired no events", kind)
		}
		if len(high.Fired) < len(low.Fired) {
			t.Errorf("%v: high soak fired fewer events (%d) than low (%d)", kind, len(high.Fired), len(low.Fired))
		}
	}

	// Baselines are clean runs, and the same-seed replay reproduced its
	// fired log byte for byte.
	for _, kind := range chaosStrategies {
		base := chaosCell(t, res, kind, "none")
		if base.Report.Restarts() != 0 || base.Report.ReworkBytes() != 0 || base.FallbackSlabs() != 0 || len(base.Fired) != 0 {
			t.Errorf("baseline %v shows fault activity: %+v", kind, base)
		}
	}
	if !res.Reproducible {
		t.Errorf("same-seed soak replay diverged:\n%s", res)
	}
}

// TestZoneChaosSeeds: the matrix completes, keeps its attribution
// identity, and stays reproducible under different seeds (the CI gate
// runs these under -race).
func TestZoneChaosSeeds(t *testing.T) {
	for _, seed := range []int64{1, 42, 20211206} {
		profile := calib.Paper()
		profile.Seed = seed
		res, err := ZoneChaos(profile, 500e6, 8, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range res.Rows {
			if c.Err != nil {
				t.Errorf("seed %d: cell %v/%v did not complete: %v", seed, c.Kind, c.Fault, c.Err)
			}
			if math.Abs(c.Report.TotalUSD()-c.SessionUSD) > 1e-9 {
				t.Errorf("seed %d: cell %v/%v attribution drift", seed, c.Kind, c.Fault)
			}
			checkMetered(t, c)
		}
		if !res.Reproducible {
			t.Errorf("seed %d: same-seed soak replay diverged", seed)
		}
	}
}

// TestFailureMatrixReplayError: a replay that cannot run is an error
// naming the cell, not a silent Reproducible == false. The replay
// reuses the plan the driver built for the cell, so the plan is spoiled
// by a later column, after the cell itself has run.
func TestFailureMatrixReplayError(t *testing.T) {
	var soak *chaos.Plan
	columns := []faultColumn{
		{name: "none"},
		{name: "soak", replay: true, plan: func(StrategyKind, calib.Profile, sortWindow, int64) (*chaos.Plan, error) {
			plan := &chaos.Plan{Events: []chaos.Event{{At: time.Second, Kind: chaos.StoreBrownout, Rate: 0.1, Duration: time.Second}}}
			if soak == nil {
				soak = plan
			}
			return plan, nil
		}},
		{name: "spoiler", plan: func(StrategyKind, calib.Profile, sortWindow, int64) (*chaos.Plan, error) {
			soak.Events[0].Rate = 2
			return &chaos.Plan{}, nil
		}},
	}
	res, err := failureMatrix(calib.Local(), 50e6, 4, 1, columns)
	if !errors.Is(err, chaos.ErrBadRate) {
		t.Fatalf("err = %v, want one wrapping chaos.ErrBadRate", err)
	}
	if !strings.Contains(err.Error(), `"Purely" serverless/soak replay`) {
		t.Errorf("error does not name the replayed cell: %v", err)
	}
	if res.Reproducible {
		t.Error("failed replay reported as reproducible")
	}
}

// TestZonePlacementFlip: single-zone cache placement wins while
// outages are rare, multi-zone past the flip point.
func TestZonePlacementFlip(t *testing.T) {
	res, err := ZonePlacementFlip(calib.Paper(), 0, nil)
	if err != nil {
		t.Fatalf("ZonePlacementFlip: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if res.Rows[0].Chosen != "single-zone" {
		t.Errorf("at rate %.2f/h chose %s, want single-zone:\n%s",
			res.Rows[0].PerHour, res.Rows[0].Chosen, res)
	}
	if last := res.Rows[len(res.Rows)-1]; last.Chosen != "multi-zone" {
		t.Errorf("at rate %.2f/h chose %s, want multi-zone:\n%s",
			last.PerHour, last.Chosen, res)
	}
	var flipped bool
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1].Chosen == "single-zone" && res.Rows[i].Chosen == "multi-zone" {
			flipped = true
		}
		if res.Rows[i].Without.Time < res.Rows[i-1].Without.Time {
			t.Errorf("single-zone expected time fell as outages rose at %.2f/h", res.Rows[i].PerHour)
		}
	}
	if !flipped {
		t.Errorf("no single -> multi flip in sweep:\n%s", res)
	}
}

func TestZoneChaosRenderings(t *testing.T) {
	res, err := ZoneChaos(calib.Paper(), 500e6, 4, 11)
	if err != nil {
		t.Fatalf("ZoneChaos: %v", err)
	}
	out := res.String()
	for _, want := range []string{"zone-outage", "soak-low", "soak-high", "slowdown", "byte-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix rendering missing %q:\n%s", want, out)
		}
	}
	flip, err := ZonePlacementFlip(calib.Paper(), 0, []float64{0.05, 120})
	if err != nil {
		t.Fatalf("ZonePlacementFlip: %v", err)
	}
	fout := flip.String()
	for _, want := range []string{"outages/h", "chosen", "single"} {
		if !strings.Contains(fout, want) {
			t.Errorf("flip rendering missing %q:\n%s", want, fout)
		}
	}
}
