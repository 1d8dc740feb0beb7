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

// FaultSchedule names one column of the chaos matrix: which fault
// class is injected mid-run (timed off the strategy's own fault-free
// baseline so the event lands inside the exchange it targets).
type FaultSchedule int

// The chaos matrix columns.
const (
	NoFault FaultSchedule = iota + 1
	SpotPreempt
	CacheNodeLoss
	BrownoutWindow
)

func (s FaultSchedule) String() string {
	switch s {
	case NoFault:
		return "none"
	case SpotPreempt:
		return "vm-preempt"
	case CacheNodeLoss:
		return "cache-node-kill"
	case BrownoutWindow:
		return "store-brownout"
	default:
		return fmt.Sprintf("FaultSchedule(%d)", int(s))
	}
}

// ChaosCell is one (strategy, fault schedule) execution.
type ChaosCell struct {
	Kind     StrategyKind
	Schedule FaultSchedule
	// Completed reports whether the pipeline finished despite the
	// fault — the graceful-degradation contract is that every cell
	// completes. Err carries the failure when it did not.
	Completed bool
	Err       string
	Latency   time.Duration
	// RunUSD is the run's full attributed spend (metered stages,
	// rework and spot credit included, plus any standing share);
	// SessionUSD is the session's closing bill. The two must agree
	// exactly — failure recovery may not lose or invent money.
	RunUSD     float64
	SessionUSD float64
	// Restarts / ReworkBytes / FallbackSlabs summarize the recovery
	// the run performed.
	Restarts      int
	ReworkBytes   int64
	FallbackSlabs int
	// Slowdown is this cell's makespan over the same strategy's
	// fault-free makespan (1.0 for the baseline column).
	Slowdown float64
	// Fired is the chaos log: what was injected and what it hit.
	Fired []chaos.Fired
}

// ChaosResult is the failure-domain matrix: every exchange strategy
// crossed with every fault class, each cell recovering (or shrugging —
// faults aimed at resources a strategy does not use are no-ops) rather
// than failing.
type ChaosResult struct {
	DataBytes int64
	Workers   int
	Rows      []ChaosCell
}

// chaosStrategies are the matrix rows. The VM row runs on a spot
// instance — the configuration preemption actually threatens.
var chaosStrategies = []StrategyKind{PurelyServerless, VMSupported, CacheSupported, AutoPlanned}

// chaosSchedules are the matrix columns, baseline first (the faulted
// cells are timed off it).
var chaosSchedules = []FaultSchedule{NoFault, SpotPreempt, CacheNodeLoss, BrownoutWindow}

// ChaosMatrix runs the failure-domain experiment: for each strategy a
// fault-free baseline, then one run per fault class with the event
// scheduled to land inside the baseline's sort window. Cells that
// fail to complete are measurements (Completed=false), not errors.
func ChaosMatrix(profile calib.Profile, dataBytes int64, workers int) (ChaosResult, error) {
	if dataBytes <= 0 {
		dataBytes = PaperDataBytes
	}
	if workers <= 0 {
		workers = PaperWorkers
	}
	res := ChaosResult{DataBytes: dataBytes, Workers: workers}
	for _, kind := range chaosStrategies {
		base, window, err := runChaosCell(profile, kind, dataBytes, workers, nil)
		if err != nil {
			return res, fmt.Errorf("experiments: chaos baseline %v: %w", kind, err)
		}
		base.Schedule = NoFault
		base.Slowdown = 1
		res.Rows = append(res.Rows, base)
		for _, sched := range chaosSchedules[1:] {
			plan := chaosPlan(sched, profile, window)
			cell, _, err := runChaosCell(profile, kind, dataBytes, workers, plan)
			if err != nil {
				return res, fmt.Errorf("experiments: chaos %v/%v: %w", kind, sched, err)
			}
			cell.Schedule = sched
			if base.Latency > 0 {
				cell.Slowdown = cell.Latency.Seconds() / base.Latency.Seconds()
			}
			res.Rows = append(res.Rows, cell)
		}
	}
	return res, nil
}

// sortWindow is the baseline's sort-stage interval, the anchor for
// fault timing.
type sortWindow struct {
	start, end time.Duration
}

// chaosPlan schedules one fault of the given class inside the
// baseline's sort window. The simulation is deterministic, so the
// faulted run follows the baseline's trajectory exactly until the
// event fires — the event lands in the phase it was aimed at.
func chaosPlan(sched FaultSchedule, profile calib.Profile, w sortWindow) *chaos.Plan {
	span := w.end - w.start
	switch sched {
	case SpotPreempt:
		// Notice lands during post-boot setup so the instance dies (30s
		// later) a few seconds into the staging/sort work, maximizing
		// the leg that must re-run. The instance only exists once boot
		// completes, so never fire before then.
		boot := instanceBoot(profile)
		at := w.start + boot + profile.VMSetup + 5*time.Second - vm.PreemptionNotice
		if min := w.start + boot + time.Second; at < min {
			at = min
		}
		return &chaos.Plan{Events: []chaos.Event{{At: at, Kind: chaos.PreemptVM}}}
	case CacheNodeLoss:
		// Kill a node partway into the map phase (after cluster
		// spin-up): slabs already cached on it are lost and regenerate,
		// the rest reroute to object storage as they are written.
		work := span - profile.Cache.ProvisionTime
		if work < 0 {
			work = span
		}
		at := w.start + profile.Cache.ProvisionTime + work*40/100
		return &chaos.Plan{Events: []chaos.Event{{At: at, Kind: chaos.KillCacheNode, Node: 0}}}
	case BrownoutWindow:
		// The window is shorter than the store client's full retry
		// backoff (~6.3s for 6 doublings from 100ms), so every request
		// that first fails inside the window still has attempts landing
		// after it clears — the ladder absorbs the brownout by design.
		return &chaos.Plan{Events: []chaos.Event{{
			At:       w.start + span*25/100,
			Kind:     chaos.StoreBrownout,
			Rate:     0.5,
			Duration: 5 * time.Second,
		}}}
	default:
		return nil
	}
}

// instanceBoot looks up the profile's pinned instance boot time.
func instanceBoot(profile calib.Profile) time.Duration {
	types := profile.VMTypes
	if len(types) == 0 {
		types = vm.Catalog()
	}
	for _, it := range types {
		if it.Name == profile.InstanceType {
			return it.BootTime
		}
	}
	return 0
}

// runChaosCell executes the pipeline once on spot capacity with the
// given fault plan armed (nil for the baseline), returning the cell and
// the run's sort-stage window.
func runChaosCell(profile calib.Profile, kind StrategyKind, dataBytes int64, workers int, plan *chaos.Plan) (ChaosCell, sortWindow, error) {
	// Invocation-level retries absorb brownout residue the store
	// client's own backoff does not.
	run, err := runPipeline(profile, pipelineSpec{
		kind: kind, dataBytes: dataBytes, workers: workers,
		spot: true, retries: 4, plan: plan,
	})
	cell := ChaosCell{Kind: kind}
	if err != nil {
		return cell, sortWindow{}, err
	}
	rep := run.Report
	cell.Completed = run.Err == nil
	if run.Err != nil {
		cell.Err = run.Err.Error()
	}
	cell.Latency = run.Latency
	cell.RunUSD = rep.TotalUSD()
	cell.SessionUSD = run.SessionUSD
	cell.Restarts = rep.Restarts()
	cell.ReworkBytes = rep.ReworkBytes()
	for _, sr := range rep.Stages {
		cell.FallbackSlabs += sr.FallbackSlabs
	}
	cell.Fired = run.Fired
	var w sortWindow
	if sr, ok := rep.Stage("sort"); ok {
		w = sortWindow{start: sr.Start, end: sr.End}
	}
	return cell, w, nil
}

// String renders the chaos matrix.
func (r ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failure domains: %.1f GB pipeline under injected faults (parallelism %d)\n",
		float64(r.DataBytes)/1e9, r.Workers)
	fmt.Fprintf(&b, "%-22s %-16s %5s %12s %10s %9s %9s %10s %9s\n",
		"strategy", "fault", "ok", "latency (s)", "cost ($)", "restarts", "rework", "fallbacks", "slowdown")
	for _, c := range r.Rows {
		fmt.Fprintf(&b, "%-22s %-16s %5v %12.2f %10.4f %9d %8.1fM %10d %8.2fx\n",
			c.Kind, c.Schedule, c.Completed, c.Latency.Seconds(), c.RunUSD,
			c.Restarts, float64(c.ReworkBytes)/1e6, c.FallbackSlabs, c.Slowdown)
		for _, f := range c.Fired {
			fmt.Fprintf(&b, "    [%s at t=%.0fs: %s]\n", f.Event.Kind, f.Event.At.Seconds(), f.Outcome)
		}
		if c.Err != "" {
			fmt.Fprintf(&b, "    [failed: %s]\n", c.Err)
		}
	}
	return b.String()
}

// SpotFlipRow is one point of the interrupt-rate sweep: the planner's
// expected-cost model for the spot and on-demand variants of the
// pinned instance type, and which it chooses.
type SpotFlipRow struct {
	// InterruptRate is the modeled preemption rate (events per
	// instance-hour).
	InterruptRate float64
	SpotUSD       float64
	SpotTime      time.Duration
	OnDemandUSD   float64
	OnDemandTime  time.Duration
	// Chosen is "spot" or "on-demand".
	Chosen string
}

// SpotFlipResult is the failure-aware planning demonstration: under a
// cost objective the planner prefers spot capacity while interruptions
// are rare, and flips to on-demand once the expected rework (re-boot,
// re-setup, re-run plus the on-demand fallback attempt) costs more
// than the spot discount saves.
type SpotFlipResult struct {
	InstanceType string
	DataBytes    int64
	Rows         []SpotFlipRow
}

// SpotDecisionFlip sweeps the catalog's interrupt rate and plans the
// paper workload under MinCost restricted to the VM family, so the
// spot-versus-on-demand call is isolated from cross-family effects.
func SpotDecisionFlip(profile calib.Profile, dataBytes int64, rates []float64) (SpotFlipResult, error) {
	if dataBytes <= 0 {
		dataBytes = PaperDataBytes
	}
	if len(rates) == 0 {
		// Events per instance-hour, spanning "rare" to "constant
		// churn"; the paper workload is short, so the flip needs a
		// high rate to show inside one run's exposure.
		rates = []float64{0.05, 1, 4, 12, 30, 60, 120}
	}
	res := SpotFlipResult{InstanceType: profile.InstanceType, DataBytes: dataBytes}
	wl := calib.PlanWorkload(profile, dataBytes)
	base := calib.PlanEnv(profile)
	base.NoObjectStorage = true
	base.NoHierarchical = true
	base.HasCache = false
	for _, rate := range rates {
		env := base
		types := make([]vm.InstanceType, len(base.VMTypes))
		copy(types, base.VMTypes)
		for i := range types {
			types[i].InterruptRate = rate
		}
		env.VMTypes = types
		dec, err := autoplan.Plan(wl, env, autoplan.Objective{Goal: autoplan.MinCost})
		if err != nil {
			return res, fmt.Errorf("experiments: spot flip rate=%g: %w", rate, err)
		}
		row := SpotFlipRow{InterruptRate: rate, Chosen: "on-demand"}
		if dec.Chosen.Spot {
			row.Chosen = "spot"
		}
		for _, c := range dec.Candidates {
			if c.Strategy != autoplan.VMStaged || !c.Feasible {
				continue
			}
			if c.Spot {
				row.SpotUSD, row.SpotTime = c.CostUSD, c.Time
			} else {
				row.OnDemandUSD, row.OnDemandTime = c.CostUSD, c.Time
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the sweep.
func (r SpotFlipResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Spot vs on-demand under MinCost: %s, %.1f GB (E[cost] prices expected rework)\n",
		r.InstanceType, float64(r.DataBytes)/1e9)
	fmt.Fprintf(&b, "%14s %12s %12s %14s %14s   %s\n",
		"interrupts/h", "spot ($)", "spot E[s]", "on-demand ($)", "on-demand (s)", "chosen")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14.2f %12.6f %12.2f %14.6f %14.2f   %s\n",
			row.InterruptRate, row.SpotUSD, row.SpotTime.Seconds(),
			row.OnDemandUSD, row.OnDemandTime.Seconds(), row.Chosen)
	}
	return b.String()
}
