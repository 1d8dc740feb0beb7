package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
)

// ZoneFault names one column of the zone-chaos matrix.
type ZoneFault int

// The zone-chaos matrix columns: a clean baseline, one whole-zone
// outage aimed into the sort window, and two seeded Poisson soaks at
// different arrival intensities.
const (
	ZoneNoFault ZoneFault = iota + 1
	ZoneOutageFault
	PoissonSoakLow
	PoissonSoakHigh
)

func (f ZoneFault) String() string {
	switch f {
	case ZoneNoFault:
		return "none"
	case ZoneOutageFault:
		return "zone-outage"
	case PoissonSoakLow:
		return "soak-low"
	case PoissonSoakHigh:
		return "soak-high"
	default:
		return fmt.Sprintf("ZoneFault(%d)", int(f))
	}
}

// ZoneChaosCell is one (strategy, zone fault) execution.
type ZoneChaosCell struct {
	Kind  StrategyKind
	Fault ZoneFault
	// Completed reports whether the pipeline finished despite the
	// fault(s); the graceful-degradation contract is that every cell
	// completes, including the cache row's total cluster loss.
	Completed bool
	Err       string
	Latency   time.Duration
	// RunUSD is the run's full attributed spend, SessionUSD the
	// session's closing bill; they must agree exactly.
	RunUSD        float64
	SessionUSD    float64
	Restarts      int
	ReworkBytes   int64
	FallbackSlabs int
	// Slowdown is this cell's makespan over the strategy's fault-free
	// makespan (1.0 for the baseline column).
	Slowdown float64
	// Events counts the chaos events that fired; Log is the canonical
	// fired log (the byte-identical reproducibility artifact).
	Events int
	Log    string
}

// ZoneChaosResult is the failure-domain matrix over zones: every
// exchange strategy crossed with a correlated whole-zone outage and two
// stochastic soak intensities.
type ZoneChaosResult struct {
	DataBytes int64
	Workers   int
	Seed      int64
	Zones     []string
	Rows      []ZoneChaosCell
	// Reproducible reports the replay check: re-running one soak cell
	// with the same seed produced a byte-identical fired log.
	Reproducible bool
}

// zoneFaults are the matrix columns, baseline first.
var zoneFaults = []ZoneFault{ZoneNoFault, ZoneOutageFault, PoissonSoakLow, PoissonSoakHigh}

// zoneChaosProfile gives the profile a two-zone layout when it has
// none: zone-a hosts everything (including the store's bandwidth pool),
// zone-b is the survivor replacements land in.
func zoneChaosProfile(p calib.Profile) calib.Profile {
	if len(p.Zones) < 2 {
		p.Zones = []string{"zone-a", "zone-b"}
	}
	return p
}

// zoneOutagePlan aims one whole-zone outage of the primary zone into
// the strategy's sort window, past its provisioning lead so the
// resources it targets exist when it fires.
func zoneOutagePlan(kind StrategyKind, profile calib.Profile, w sortWindow) *chaos.Plan {
	span := w.end - w.start
	var lead time.Duration
	switch kind {
	case VMSupported:
		lead = instanceBoot(profile) + profile.VMSetup
	case CacheSupported, AutoPlanned:
		lead = profile.Cache.ProvisionTime
	}
	work := span - lead
	if work < 0 {
		lead, work = 0, span
	}
	// The window stays under the store client's full retry ladder
	// (~6.3s for 6 doublings from 100ms), so every request that first
	// fails inside the correlated brownout still has attempts landing
	// after it clears — absorption is structural, not luck. The zone
	// losses themselves are permanent either way: the reclaimed spot
	// capacity is gone and the killed cluster stays dead after the
	// zone reopens for placement.
	return &chaos.Plan{Events: []chaos.Event{{
		At:       w.start + lead + work*40/100,
		Kind:     chaos.ZoneOutage,
		Zone:     profile.Zones[0],
		Rate:     0.4,
		Duration: 6 * time.Second,
	}}}
}

// soakProcess parameterizes the Poisson soak for one intensity level.
// Every brownout-opening window (scheduled brownouts and the outages'
// correlated ones) stays under the store client's ~6.3s retry ladder,
// so no request can exhaust its retries on brownout draws alone; and
// the zone-outage class stays modest even in the high soak — outages
// of both zones may overlap, and a run caught provisioning during a
// total blackout fails rather than degrades, a real measurement but
// not the contract this matrix demonstrates.
func soakProcess(fault ZoneFault, profile calib.Profile, seed int64, horizon time.Duration) chaos.Process {
	pr := chaos.Process{
		Seed:             seed,
		Horizon:          horizon,
		CacheNodes:       1,
		BrownoutRate:     0.5,
		BrownoutDuration: 5 * time.Second,
		Zones:            profile.Zones,
		OutageRate:       0.3,
		OutageDuration:   6 * time.Second,
	}
	switch fault {
	case PoissonSoakLow:
		pr.PreemptPerHour = 15
		pr.CacheKillPerHour = 12
		pr.BrownoutPerHour = 30
		pr.ZoneOutagePerHour = 4
	case PoissonSoakHigh:
		pr.PreemptPerHour = 45
		pr.CacheKillPerHour = 36
		pr.BrownoutPerHour = 90
		pr.ZoneOutagePerHour = 10
	}
	return pr
}

// zoneFaultPlan builds the fault plan for one non-baseline cell.
func zoneFaultPlan(fault ZoneFault, kind StrategyKind, profile calib.Profile, w sortWindow, seed int64) (*chaos.Plan, error) {
	switch fault {
	case ZoneOutageFault:
		return zoneOutagePlan(kind, profile, w), nil
	case PoissonSoakLow, PoissonSoakHigh:
		// The horizon covers the fault-free run plus the recovery slack
		// faults themselves add, so arrivals keep landing while a
		// degraded run limps to completion.
		horizon := w.end + w.end/2 + time.Minute
		return soakProcess(fault, profile, seed, horizon).Generate()
	default:
		return nil, nil
	}
}

// firedLog renders a fired-event list canonically; two runs of the same
// seeded plan over the same workload must produce identical bytes.
func firedLog(fired []chaos.Fired) string {
	var b strings.Builder
	for _, f := range fired {
		fmt.Fprintf(&b, "%s @%s: %s\n", f.Event.Kind, f.Event.At, f.Outcome)
	}
	return b.String()
}

// zoneCellFrom converts a shared chaos-cell execution into a zone cell.
func zoneCellFrom(c ChaosCell, fault ZoneFault) ZoneChaosCell {
	return ZoneChaosCell{
		Kind:          c.Kind,
		Fault:         fault,
		Completed:     c.Completed,
		Err:           c.Err,
		Latency:       c.Latency,
		RunUSD:        c.RunUSD,
		SessionUSD:    c.SessionUSD,
		Restarts:      c.Restarts,
		ReworkBytes:   c.ReworkBytes,
		FallbackSlabs: c.FallbackSlabs,
		Slowdown:      c.Slowdown,
		Events:        len(c.Fired),
		Log:           firedLog(c.Fired),
	}
}

// ZoneChaos runs the failure-domain matrix over zones: for each
// strategy a fault-free baseline anchors the timing, then a correlated
// whole-zone outage and two Poisson soaks are injected. The replay
// check re-runs one soak cell and compares fired logs byte for byte.
func ZoneChaos(profile calib.Profile, dataBytes int64, workers int, seed int64) (ZoneChaosResult, error) {
	profile = zoneChaosProfile(profile)
	if dataBytes <= 0 {
		dataBytes = PaperDataBytes
	}
	if workers <= 0 {
		workers = PaperWorkers
	}
	res := ZoneChaosResult{DataBytes: dataBytes, Workers: workers, Seed: seed, Zones: profile.Zones}
	type soakKey struct {
		kind  StrategyKind
		fault ZoneFault
	}
	soakPlans := make(map[soakKey]*chaos.Plan)
	for _, kind := range chaosStrategies {
		base, window, err := runChaosCell(profile, kind, dataBytes, workers, nil)
		if err != nil {
			return res, fmt.Errorf("experiments: zone chaos baseline %v: %w", kind, err)
		}
		baseCell := zoneCellFrom(base, ZoneNoFault)
		baseCell.Slowdown = 1
		res.Rows = append(res.Rows, baseCell)
		for _, fault := range zoneFaults[1:] {
			plan, err := zoneFaultPlan(fault, kind, profile, window, seed)
			if err != nil {
				return res, fmt.Errorf("experiments: zone chaos %v/%v plan: %w", kind, fault, err)
			}
			c, _, err := runChaosCell(profile, kind, dataBytes, workers, plan)
			if err != nil {
				return res, fmt.Errorf("experiments: zone chaos %v/%v: %w", kind, fault, err)
			}
			cell := zoneCellFrom(c, fault)
			if base.Latency > 0 {
				cell.Slowdown = cell.Latency.Seconds() / base.Latency.Seconds()
			}
			res.Rows = append(res.Rows, cell)
			if fault == PoissonSoakLow || fault == PoissonSoakHigh {
				soakPlans[soakKey{kind, fault}] = plan
			}
		}
	}

	// Replay check: the same seeded soak plan over the same workload
	// must reproduce the fired log byte for byte.
	replayKind := chaosStrategies[0]
	if replay, _, err := runChaosCell(profile, replayKind, dataBytes, workers,
		soakPlans[soakKey{replayKind, PoissonSoakLow}]); err == nil {
		for _, c := range res.Rows {
			if c.Kind == replayKind && c.Fault == PoissonSoakLow {
				res.Reproducible = firedLog(replay.Fired) == c.Log
			}
		}
	}
	return res, nil
}

// Cell finds one matrix entry.
func (r ZoneChaosResult) Cell(kind StrategyKind, fault ZoneFault) (ZoneChaosCell, bool) {
	for _, c := range r.Rows {
		if c.Kind == kind && c.Fault == fault {
			return c, true
		}
	}
	return ZoneChaosCell{}, false
}

// String renders the zone-chaos matrix.
func (r ZoneChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Zone failure domains: %.1f GB pipeline, zones %v, seed %d (parallelism %d)\n",
		float64(r.DataBytes)/1e9, r.Zones, r.Seed, r.Workers)
	fmt.Fprintf(&b, "%-22s %-12s %5s %12s %10s %9s %9s %10s %7s %9s\n",
		"strategy", "fault", "ok", "latency (s)", "cost ($)", "restarts", "rework", "fallbacks", "events", "slowdown")
	for _, c := range r.Rows {
		fmt.Fprintf(&b, "%-22s %-12s %5v %12.2f %10.4f %9d %8.1fM %10d %7d %8.2fx\n",
			c.Kind, c.Fault, c.Completed, c.Latency.Seconds(), c.RunUSD,
			c.Restarts, float64(c.ReworkBytes)/1e6, c.FallbackSlabs, c.Events, c.Slowdown)
		if c.Err != "" {
			fmt.Fprintf(&b, "    [failed: %s]\n", c.Err)
		}
	}
	fmt.Fprintf(&b, "same-seed soak replay byte-identical: %v\n", r.Reproducible)
	return b.String()
}

// ZoneFlipRow is one point of the zone-outage-rate sweep: the planner's
// best single-zone and multi-zone cache placements and which it picks.
type ZoneFlipRow struct {
	// OutagePerHour is the modeled whole-zone outage arrival rate.
	OutagePerHour float64
	SingleTime    time.Duration
	SingleUSD     float64
	MultiTime     time.Duration
	MultiUSD      float64
	// Chosen is "single-zone" or "multi-zone".
	Chosen string
}

// ZoneFlipResult is the placement counterpart of SpotDecisionFlip:
// under min-time restricted to the cache family, single-zone placement
// wins while outages are rare (every cross-zone cache hop pays RTT),
// and flips to multi-zone once the expected demotion rework of losing
// the whole cluster outweighs the premium.
type ZoneFlipResult struct {
	DataBytes int64
	Zones     int
	Rows      []ZoneFlipRow
}

// ZonePlacementFlip sweeps the zone-outage rate and plans the workload
// restricted to the cache family over a two-zone cloud, isolating the
// placement call from cross-family effects.
func ZonePlacementFlip(profile calib.Profile, dataBytes int64, rates []float64) (ZoneFlipResult, error) {
	profile = zoneChaosProfile(profile)
	if dataBytes <= 0 {
		dataBytes = PaperDataBytes
	}
	if len(rates) == 0 {
		// Outages per hour; paper-scale runs are short, so the flip
		// needs high rates to show inside one run's exposure.
		rates = []float64{0.05, 1, 5, 20, 60, 120}
	}
	res := ZoneFlipResult{DataBytes: dataBytes, Zones: len(profile.Zones)}
	wl := calib.PlanWorkload(profile, dataBytes)
	base := calib.PlanEnv(profile)
	base.NoObjectStorage = true
	base.NoHierarchical = true
	base.VMTypes = nil
	base.Zones = len(profile.Zones)
	// A meaningful RTT premium: without it the cross-zone hop hides
	// under the cache's ops throttle and placement never trades.
	base.CrossZoneRTT = 5 * time.Millisecond
	for _, rate := range rates {
		env := base
		env.ZoneOutagePerHour = rate
		dec, err := autoplan.Plan(wl, env, autoplan.Objective{})
		if err != nil {
			return res, fmt.Errorf("experiments: zone flip rate=%g: %w", rate, err)
		}
		row := ZoneFlipRow{OutagePerHour: rate, Chosen: "single-zone"}
		if dec.Chosen.MultiZone {
			row.Chosen = "multi-zone"
		}
		for _, c := range dec.Candidates {
			if c.Strategy != autoplan.CacheBacked || !c.Feasible {
				continue
			}
			if c.MultiZone {
				if row.MultiTime == 0 || c.Time < row.MultiTime {
					row.MultiTime, row.MultiUSD = c.Time, c.CostUSD
				}
			} else if row.SingleTime == 0 || c.Time < row.SingleTime {
				row.SingleTime, row.SingleUSD = c.Time, c.CostUSD
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the sweep.
func (r ZoneFlipResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cache placement under MinTime: %.1f GB across %d zones (E[time] prices demotion rework)\n",
		float64(r.DataBytes)/1e9, r.Zones)
	fmt.Fprintf(&b, "%12s %14s %12s %14s %12s   %s\n",
		"outages/h", "single E[s]", "single ($)", "multi E[s]", "multi ($)", "chosen")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%12.2f %14.2f %12.6f %14.2f %12.6f   %s\n",
			row.OutagePerHour, row.SingleTime.Seconds(), row.SingleUSD,
			row.MultiTime.Seconds(), row.MultiUSD, row.Chosen)
	}
	return b.String()
}
