package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// ChaosCell is one (strategy, fault column) execution: the run itself
// plus which column it sat in. The graceful-degradation contract is
// that every cell completes (Err == nil), including the cache row's
// total cluster loss, and that recovery neither loses nor invents
// money: Report.TotalUSD(), metered stages, rework and spot credit
// included, is what the cloud's global meters priced while it ran.
type ChaosCell struct {
	PipelineRun
	// Fault is the column's name.
	Fault string
	// Slowdown is this cell's makespan over the same strategy's
	// fault-free makespan (1.0 for the baseline column).
	Slowdown float64
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

// ChaosResult is a failure-domain matrix: every exchange strategy
// crossed with every fault column, each cell recovering (or shrugging —
// faults aimed at resources a strategy does not use are no-ops) rather
// than failing.
type ChaosResult struct {
	DataBytes int64
	Workers   int
	Rows      []ChaosCell
	// Zones and Seed are set by the zone matrix only: the cloud's zone
	// layout and the Poisson soaks' arrival seed.
	Zones []string
	Seed  int64
	// Reproducible reports the replay check: re-running one soak cell
	// with the same seeded plan produced a byte-identical fired log.
	Reproducible bool
}

// chaosStrategies are the matrix rows. The VM row runs on a spot
// instance — the configuration preemption actually threatens.
var chaosStrategies = []StrategyKind{PurelyServerless, VMSupported, CacheSupported, AutoPlanned}

// sortWindow is the baseline's sort-stage interval, the anchor for
// fault timing.
type sortWindow struct {
	start, end time.Duration
}

// planFunc builds one cell's fault plan, timed off the strategy's own
// fault-free sort window: the simulation is deterministic, so the
// faulted run follows the baseline's trajectory exactly until an event
// fires, and the event lands in the phase it was aimed at.
type planFunc func(kind StrategyKind, profile calib.Profile, w sortWindow, seed int64) (*chaos.Plan, error)

// faultColumn is one column of a failure-domain matrix. plan is nil for
// the baseline column, which must come first. replay marks the column
// whose first-strategy cell is run a second time with the same plan,
// for the byte-identical fired-log check.
type faultColumn struct {
	name   string
	plan   planFunc
	replay bool
}

// chaosFaults are the single-zone matrix columns: one fault of each
// class aimed into the sort window.
var chaosFaults = []faultColumn{
	{name: "none"},
	{name: "vm-preempt", plan: oneEvent(spotPreempt)},
	{name: "cache-node-kill", plan: oneEvent(cacheNodeLoss)},
	{name: "store-brownout", plan: oneEvent(storeBrownout)},
}

// zoneFaults are the zone matrix columns: a correlated whole-zone
// outage aimed into the sort window and two seeded Poisson soaks at
// different arrival intensities.
var zoneFaults = []faultColumn{
	{name: "none"},
	{name: "zone-outage", plan: oneEvent(zoneOutage)},
	{name: "soak-low", plan: poissonSoak(15, 12, 30, 4), replay: true},
	{name: "soak-high", plan: poissonSoak(45, 36, 90, 10)},
}

// oneEvent lifts a single scheduled event into a column's plan.
func oneEvent(event func(StrategyKind, calib.Profile, sortWindow) chaos.Event) planFunc {
	return func(kind StrategyKind, profile calib.Profile, w sortWindow, _ int64) (*chaos.Plan, error) {
		return &chaos.Plan{Events: []chaos.Event{event(kind, profile, w)}}, nil
	}
}

// spotPreempt lands the notice during post-boot setup so the instance
// dies (30s later) a few seconds into the staging/sort work, maximizing
// the leg that must re-run. The instance only exists once boot
// completes, so never fire before then.
func spotPreempt(_ StrategyKind, profile calib.Profile, w sortWindow) chaos.Event {
	boot := instanceBoot(profile)
	at := w.start + boot + profile.VMSetup + 5*time.Second - vm.PreemptionNotice
	if min := w.start + boot + time.Second; at < min {
		at = min
	}
	return chaos.Event{At: at, Kind: chaos.PreemptVM}
}

// cacheNodeLoss kills a node partway into the map phase (after cluster
// spin-up): slabs already cached on it are lost and regenerate, the
// rest reroute to object storage as they are written.
func cacheNodeLoss(_ StrategyKind, profile calib.Profile, w sortWindow) chaos.Event {
	span := w.end - w.start
	work := span - profile.Cache.ProvisionTime
	if work < 0 {
		work = span
	}
	at := w.start + profile.Cache.ProvisionTime + work*40/100
	return chaos.Event{At: at, Kind: chaos.KillCacheNode, Node: 0}
}

// storeBrownout opens a window shorter than the store client's full
// retry backoff (~6.3s for 6 doublings from 100ms), so every request
// that first fails inside the window still has attempts landing after
// it clears — the ladder absorbs the brownout by design.
func storeBrownout(_ StrategyKind, _ calib.Profile, w sortWindow) chaos.Event {
	return chaos.Event{
		At:       w.start + (w.end-w.start)*25/100,
		Kind:     chaos.StoreBrownout,
		Rate:     0.5,
		Duration: 5 * time.Second,
	}
}

// zoneOutage aims one whole-zone outage of the primary zone into the
// strategy's sort window, past its provisioning lead so the resources
// it targets exist when it fires.
func zoneOutage(kind StrategyKind, profile calib.Profile, w sortWindow) chaos.Event {
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
	return chaos.Event{
		At:       w.start + lead + work*40/100,
		Kind:     chaos.ZoneOutage,
		Zone:     profile.Zones[0],
		Rate:     0.4,
		Duration: 6 * time.Second,
	}
}

// poissonSoak is a seeded stochastic plan at the given arrival rates
// (per hour). Every brownout-opening window (scheduled brownouts and
// the outages' correlated ones) stays under the store client's ~6.3s
// retry ladder, so no request can exhaust its retries on brownout draws
// alone; and the zone-outage class stays modest even in the high soak —
// outages of both zones may overlap, and a run caught provisioning
// during a total blackout fails rather than degrades, a real
// measurement but not the contract this matrix demonstrates.
func poissonSoak(preempt, cacheKill, brownout, outage float64) planFunc {
	return func(_ StrategyKind, profile calib.Profile, w sortWindow, seed int64) (*chaos.Plan, error) {
		return chaos.Process{
			Seed: seed,
			// The horizon covers the fault-free run plus the recovery
			// slack faults themselves add, so arrivals keep landing
			// while a degraded run limps to completion.
			Horizon:           w.end + w.end/2 + time.Minute,
			PreemptPerHour:    preempt,
			CacheKillPerHour:  cacheKill,
			CacheNodes:        1,
			BrownoutPerHour:   brownout,
			BrownoutRate:      0.5,
			BrownoutDuration:  5 * time.Second,
			Zones:             profile.Zones,
			ZoneOutagePerHour: outage,
			OutageRate:        0.3,
			OutageDuration:    6 * time.Second,
		}.Generate()
	}
}

// instanceBoot looks up the profile's pinned instance boot time.
func instanceBoot(profile calib.Profile) time.Duration {
	for _, it := range calib.PlanEnv(profile).VMTypes {
		if it.Name == profile.InstanceType {
			return it.BootTime
		}
	}
	return 0
}

// ChaosMatrix runs the single-zone failure-domain experiment: one
// fault of each class (spot preemption, cache-node loss, store
// brownout) against every strategy.
func ChaosMatrix(profile calib.Profile, dataBytes int64, workers int) (ChaosResult, error) {
	return failureMatrix(profile, dataBytes, workers, 0, chaosFaults)
}

// ZoneChaos runs the failure-domain matrix over zones: a correlated
// whole-zone outage and two Poisson soaks against every strategy, plus
// the same-seed replay check.
func ZoneChaos(profile calib.Profile, dataBytes int64, workers int, seed int64) (ChaosResult, error) {
	profile = zoneChaosProfile(profile)
	res, err := failureMatrix(profile, dataBytes, workers, seed, zoneFaults)
	res.Zones, res.Seed = profile.Zones, seed
	return res, err
}

// zoneChaosProfile gives the profile a two-zone layout when it has
// none: zone-a hosts everything (including the store's bandwidth pool),
// zone-b is the survivor replacements land in.
func zoneChaosProfile(p calib.Profile) calib.Profile {
	if len(p.Zones) < 2 {
		p.Zones = []string{"zone-a", "zone-b"}
	}
	return p
}

// failureMatrix is the one matrix driver: for each strategy the
// baseline column anchors the timing, then each fault column's plan is
// built off that window and run. Cells that fail to complete are
// measurements (the cell's Err), not errors; a cell or a replay that
// cannot run at all is an error naming the cell.
func failureMatrix(profile calib.Profile, dataBytes int64, workers int, seed int64, columns []faultColumn) (ChaosResult, error) {
	dataBytes, workers = paperScale(dataBytes, workers)
	res := ChaosResult{DataBytes: dataBytes, Workers: workers}
	var (
		replayPlan *chaos.Plan
		replayRow  int
	)
	for _, kind := range chaosStrategies {
		var (
			base   time.Duration
			window sortWindow
		)
		for _, col := range columns {
			var plan *chaos.Plan
			if col.plan != nil {
				var err error
				if plan, err = col.plan(kind, profile, window, seed); err != nil {
					return res, fmt.Errorf("experiments: chaos %v/%s plan: %w", kind, col.name, err)
				}
			}
			run, err := runChaosCell(profile, kind, dataBytes, workers, plan)
			if err != nil {
				return res, fmt.Errorf("experiments: chaos %v/%s: %w", kind, col.name, err)
			}
			cell := ChaosCell{PipelineRun: run, Fault: col.name}
			if col.plan == nil {
				cell.Slowdown = 1
				base = run.Latency
				if sr, ok := run.Report.Stage("sort"); ok {
					window = sortWindow{start: sr.Start, end: sr.End}
				}
			} else if base > 0 {
				cell.Slowdown = run.Latency.Seconds() / base.Seconds()
			}
			if col.replay && replayPlan == nil {
				replayPlan, replayRow = plan, len(res.Rows)
			}
			res.Rows = append(res.Rows, cell)
		}
	}
	if replayPlan != nil {
		// The same seeded plan over the same workload must reproduce
		// the fired log byte for byte.
		first := res.Rows[replayRow]
		again, err := runChaosCell(profile, first.Kind, dataBytes, workers, replayPlan)
		if err != nil {
			return res, fmt.Errorf("experiments: chaos %v/%s replay: %w", first.Kind, first.Fault, err)
		}
		res.Reproducible = firedLog(again.Fired) == firedLog(first.Fired)
	}
	return res, nil
}

// runChaosCell executes the pipeline once on spot capacity with the
// given fault plan armed (nil for the baseline). Invocation-level
// retries absorb brownout residue the store client's own backoff does
// not.
func runChaosCell(profile calib.Profile, kind StrategyKind, dataBytes int64, workers int, plan *chaos.Plan) (PipelineRun, error) {
	return runPipeline(profile, pipelineSpec{
		kind: kind, dataBytes: dataBytes, workers: workers,
		spot: true, retries: 4, plan: plan,
	})
}

// String renders the matrix: the zone layout (an events count per cell
// and the replay verdict) when Zones is set, otherwise the single-zone
// layout with each cell's fired log spelled out.
func (r ChaosResult) String() string {
	zoned := len(r.Zones) > 0
	var b strings.Builder
	if zoned {
		fmt.Fprintf(&b, "Zone failure domains: %.1f GB pipeline, zones %v, seed %d (parallelism %d)\n",
			float64(r.DataBytes)/1e9, r.Zones, r.Seed, r.Workers)
		fmt.Fprintf(&b, "%-22s %-12s %5s %12s %10s %9s %9s %10s %7s %9s\n",
			"strategy", "fault", "ok", "latency (s)", "cost ($)", "restarts", "rework", "fallbacks", "events", "slowdown")
	} else {
		fmt.Fprintf(&b, "Failure domains: %.1f GB pipeline under injected faults (parallelism %d)\n",
			float64(r.DataBytes)/1e9, r.Workers)
		fmt.Fprintf(&b, "%-22s %-16s %5s %12s %10s %9s %9s %10s %9s\n",
			"strategy", "fault", "ok", "latency (s)", "cost ($)", "restarts", "rework", "fallbacks", "slowdown")
	}
	for _, c := range r.Rows {
		if zoned {
			fmt.Fprintf(&b, "%-22s %-12s %5v %12.2f %10.4f %9d %8.1fM %10d %7d %8.2fx\n",
				c.Kind, c.Fault, c.Err == nil, c.Latency.Seconds(), c.Report.TotalUSD(),
				c.Report.Restarts(), float64(c.Report.ReworkBytes())/1e6, c.FallbackSlabs(), len(c.Fired), c.Slowdown)
		} else {
			fmt.Fprintf(&b, "%-22s %-16s %5v %12.2f %10.4f %9d %8.1fM %10d %8.2fx\n",
				c.Kind, c.Fault, c.Err == nil, c.Latency.Seconds(), c.Report.TotalUSD(),
				c.Report.Restarts(), float64(c.Report.ReworkBytes())/1e6, c.FallbackSlabs(), c.Slowdown)
			for _, f := range c.Fired {
				fmt.Fprintf(&b, "    [%s at t=%.0fs: %s]\n", f.Event.Kind, f.Event.At.Seconds(), f.Outcome)
			}
		}
		if c.Err != nil {
			fmt.Fprintf(&b, "    [failed: %s]\n", c.Err)
		}
	}
	if zoned {
		fmt.Fprintf(&b, "same-seed soak replay byte-identical: %v\n", r.Reproducible)
	}
	return b.String()
}

// FlipSide is the planner's fastest feasible plan on one side of a
// binary call.
type FlipSide struct {
	Time time.Duration
	USD  float64
}

// FlipRow is one point of a fault-rate sweep: the planner's expected
// time and cost with and without the option under study, and which it
// chooses.
type FlipRow struct {
	// PerHour is the modeled fault arrival rate.
	PerHour       float64
	With, Without FlipSide
	Chosen        string
}

// FlipResult is the failure-aware planning demonstration: the planner
// takes one side of a binary call while faults are rare and flips once
// their expected rework outweighs what that side saves.
type FlipResult struct {
	DataBytes int64
	// InstanceType is set by the spot sweep, Zones by the placement
	// sweep.
	InstanceType string
	Zones        int
	Rows         []FlipRow
}

// flip is one binary planning call swept over a fault rate.
type flip struct {
	// env is the cloud restricted to the one family under study, so the
	// call is isolated from cross-family effects.
	env    autoplan.Env
	goal   autoplan.Objective
	family autoplan.Strategy
	// setRate applies the swept fault rate (per hour) to a copy of env.
	setRate func(env *autoplan.Env, perHour float64)
	// with reports whether a plan takes the option; chosen names the
	// two sides (without, with).
	with   func(autoplan.Candidate) bool
	chosen [2]string
}

func (f flip) sweep(wl autoplan.Workload, rates []float64) ([]FlipRow, error) {
	var rows []FlipRow
	for _, rate := range rates {
		env := f.env
		f.setRate(&env, rate)
		dec, err := autoplan.Plan(wl, env, f.goal)
		if err != nil {
			return rows, fmt.Errorf("experiments: %s flip rate=%g: %w", f.chosen[1], rate, err)
		}
		row := FlipRow{PerHour: rate, Chosen: f.chosen[0]}
		if f.with(dec.Chosen) {
			row.Chosen = f.chosen[1]
		}
		// Candidates come fastest first: keep the first on each side.
		for _, c := range dec.Candidates {
			if c.Strategy != f.family || !c.Feasible {
				continue
			}
			side := &row.Without
			if f.with(c) {
				side = &row.With
			}
			if side.Time == 0 {
				*side = FlipSide{Time: c.Time, USD: c.CostUSD}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SpotDecisionFlip sweeps the catalog's interrupt rate and plans the
// paper workload under MinCost restricted to the VM family: the
// planner prefers spot capacity while interruptions are rare, and
// flips to on-demand once the expected rework (re-boot, re-setup,
// re-run plus the on-demand fallback attempt) costs more than the spot
// discount saves.
func SpotDecisionFlip(profile calib.Profile, dataBytes int64, rates []float64) (FlipResult, error) {
	dataBytes, _ = paperScale(dataBytes, 0)
	if len(rates) == 0 {
		// Events per instance-hour, spanning "rare" to "constant
		// churn"; the paper workload is short, so the flip needs a
		// high rate to show inside one run's exposure.
		rates = []float64{0.05, 1, 4, 12, 30, 60, 120}
	}
	env := calib.PlanEnv(profile)
	env.NoObjectStorage = true
	env.NoHierarchical = true
	env.HasCache = false
	rows, err := flip{
		env: env, goal: autoplan.Objective{Goal: autoplan.MinCost}, family: autoplan.VMStaged,
		setRate: func(env *autoplan.Env, perHour float64) {
			types := append([]vm.InstanceType(nil), env.VMTypes...)
			for i := range types {
				types[i].InterruptRate = perHour
			}
			env.VMTypes = types
		},
		with:   func(c autoplan.Candidate) bool { return c.Spot },
		chosen: [2]string{"on-demand", "spot"},
	}.sweep(calib.PlanWorkload(profile, dataBytes), rates)
	return FlipResult{DataBytes: dataBytes, InstanceType: profile.InstanceType, Rows: rows}, err
}

// ZonePlacementFlip is the placement counterpart of SpotDecisionFlip:
// under min-time restricted to the cache family over a two-zone cloud,
// single-zone placement wins while outages are rare (every cross-zone
// cache hop pays RTT), and flips to multi-zone once the expected
// demotion rework of losing the whole cluster outweighs the premium.
func ZonePlacementFlip(profile calib.Profile, dataBytes int64, rates []float64) (FlipResult, error) {
	profile = zoneChaosProfile(profile)
	dataBytes, _ = paperScale(dataBytes, 0)
	if len(rates) == 0 {
		// Outages per hour; paper-scale runs are short, so the flip
		// needs high rates to show inside one run's exposure.
		rates = []float64{0.05, 1, 5, 20, 60, 120}
	}
	env := calib.PlanEnv(profile)
	env.NoObjectStorage = true
	env.NoHierarchical = true
	env.VMTypes = nil
	// A meaningful RTT premium: without it the cross-zone hop hides
	// under the cache's ops throttle and placement never trades.
	env.CrossZoneRTT = 5 * time.Millisecond
	rows, err := flip{
		env: env, family: autoplan.CacheBacked,
		setRate: func(env *autoplan.Env, perHour float64) { env.ZoneOutagePerHour = perHour },
		with:    func(c autoplan.Candidate) bool { return c.MultiZone },
		chosen:  [2]string{"single-zone", "multi-zone"},
	}.sweep(calib.PlanWorkload(profile, dataBytes), rates)
	return FlipResult{DataBytes: dataBytes, Zones: len(profile.Zones), Rows: rows}, err
}

// String renders the sweep: the placement layout when Zones is set,
// otherwise the spot layout.
func (r FlipResult) String() string {
	var b strings.Builder
	if r.Zones > 0 {
		fmt.Fprintf(&b, "Cache placement under MinTime: %.1f GB across %d zones (E[time] prices demotion rework)\n",
			float64(r.DataBytes)/1e9, r.Zones)
		fmt.Fprintf(&b, "%12s %14s %12s %14s %12s   %s\n",
			"outages/h", "single E[s]", "single ($)", "multi E[s]", "multi ($)", "chosen")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%12.2f %14.2f %12.6f %14.2f %12.6f   %s\n",
				row.PerHour, row.Without.Time.Seconds(), row.Without.USD,
				row.With.Time.Seconds(), row.With.USD, row.Chosen)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "Spot vs on-demand under MinCost: %s, %.1f GB (E[cost] prices expected rework)\n",
		r.InstanceType, float64(r.DataBytes)/1e9)
	fmt.Fprintf(&b, "%14s %12s %12s %14s %14s   %s\n",
		"interrupts/h", "spot ($)", "spot E[s]", "on-demand ($)", "on-demand (s)", "chosen")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14.2f %12.6f %12.2f %14.6f %14.2f   %s\n",
			row.PerHour, row.With.USD, row.With.Time.Seconds(),
			row.Without.USD, row.Without.Time.Seconds(), row.Chosen)
	}
	return b.String()
}
