package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// SweepRow is one point of the worker-count sweep.
type SweepRow struct {
	Workers   int
	Measured  time.Duration
	Predicted time.Duration
}

// WorkerSweepResult demonstrates the "appropriate number of functions"
// claim: shuffle latency is U-shaped in worker count, and the planner
// picks near the bottom.
type WorkerSweepResult struct {
	DataBytes int64
	Rows      []SweepRow
	// Planned is the worker count Primula's planner chooses.
	Planned int
}

// WorkerSweep measures the shuffle alone at each worker count.
func WorkerSweep(profile calib.Profile, dataBytes int64, workerCounts []int) (WorkerSweepResult, error) {
	dataBytes, _ = paperScale(dataBytes, 0)
	res := WorkerSweepResult{DataBytes: dataBytes}
	for _, w := range workerCounts {
		measured, err := measureShuffle(profile, dataBytes, w)
		if err != nil {
			return res, fmt.Errorf("experiments: sweep w=%d: %w", w, err)
		}
		pred := shuffle.Predict(w, calib.PlanInput(profile, dataBytes), shuffle.ProfileOf(profile.Store))
		res.Rows = append(res.Rows, SweepRow{Workers: w, Measured: measured, Predicted: pred.Predicted})
	}
	plan, err := shuffle.Optimize(calib.PlanInput(profile, dataBytes), shuffle.ProfileOf(profile.Store))
	if err != nil {
		return res, err
	}
	res.Planned = plan.Workers
	return res, nil
}

// sortOnly configures one measurement of the shuffle alone.
type sortOnly struct {
	workers int
	// exchange is ViaStore, or ViaStoreTwoLevel for the two-level
	// shuffle (groups auto-picked near sqrt(workers)).
	exchange shuffle.Exchange
	// maxRetries / speculate are the invocation-level mitigations.
	maxRetries int
	speculate  bool
}

// sortMeasurement is what one sort-only run observed.
type sortMeasurement struct {
	latency time.Duration
	// groups is the hierarchical shuffle's group count.
	groups int
	// sortErr is the shuffle's own failure. Under injected faults an
	// abort (retries exhausted or no mitigation) is a measurement, so it
	// is kept apart from the set-up errors measureSort returns.
	sortErr error
	// meter is the platform's counters after the run.
	meter faas.Meter
}

// measureSort is the one sort-only runner: a fresh rig, the staged
// input, and one timed sort.
func measureSort(profile calib.Profile, dataBytes int64, so sortOnly) (sortMeasurement, error) {
	var m sortMeasurement
	rig, err := calib.NewRig(profile)
	if err != nil {
		return m, err
	}
	spec := shuffle.Spec{
		InputBucket: "data", InputKey: "in",
		OutputBucket: "work", OutputPrefix: "sorted/",
		Workers:      so.workers,
		Exchange:     so.exchange,
		PartitionBps: profile.PartitionBps,
		MergeBps:     profile.MergeBps,
		MemoryMB:     profile.Faas.MemoryMB,
		MaxRetries:   so.maxRetries,
		Speculate:    so.speculate,
	}
	var setupErr error
	rig.Sim.Spawn("sort", func(p *des.Proc) {
		if setupErr = stageInput(p, rig.Store, "in", dataBytes); setupErr != nil {
			return
		}
		start := p.Now()
		var res shuffle.Result
		res, m.sortErr = rig.Shuffle.Sort(p, spec)
		m.groups = res.Groups
		m.latency = p.Now() - start
	})
	if err := rig.Run(); err != nil {
		return m, err
	}
	m.meter = rig.Platform.Meter()
	return m, setupErr
}

// measureShuffle times the one-level shuffle at a worker count.
func measureShuffle(profile calib.Profile, dataBytes int64, workers int) (time.Duration, error) {
	m, err := measureSort(profile, dataBytes, sortOnly{workers: workers})
	if err == nil {
		err = m.sortErr
	}
	return m.latency, err
}

// String renders the sweep as a table with a crude latency bar.
func (r WorkerSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shuffle latency vs worker count (%.1f GB; planner picks %d)\n",
		float64(r.DataBytes)/1e9, r.Planned)
	fmt.Fprintf(&b, "%8s %14s %14s\n", "workers", "measured (s)", "model (s)")
	var maxS float64
	for _, row := range r.Rows {
		if s := row.Measured.Seconds(); s > maxS {
			maxS = s
		}
	}
	for _, row := range r.Rows {
		bar := ""
		if maxS > 0 {
			bar = strings.Repeat("#", int(row.Measured.Seconds()/maxS*40))
		}
		marker := ""
		if row.Workers == r.Planned {
			marker = "  <- planned"
		}
		fmt.Fprintf(&b, "%8d %14.2f %14.2f  %s%s\n",
			row.Workers, row.Measured.Seconds(), row.Predicted.Seconds(), bar, marker)
	}
	return b.String()
}

// HierRow is one point of the hierarchy ablation.
type HierRow struct {
	Workers  int
	Groups   int
	OneLevel time.Duration
	TwoLevel time.Duration
	// PredictedOne / PredictedTwo are the planner models' estimates.
	PredictedOne time.Duration
	PredictedTwo time.Duration
}

// HierResult is the two-level shuffle ablation: the one-level
// all-to-all moves w^2 intermediate objects, the hierarchical variant
// ~2*w^1.5 at the price of an extra pass of the data through the
// store — so it loses at the paper's w=8 and wins once per-request
// costs dominate at large w.
type HierResult struct {
	DataBytes int64
	Rows      []HierRow
}

// HierarchySweep measures one-level vs two-level shuffle latency at
// each worker count (groups auto-picked near sqrt(w)).
func HierarchySweep(profile calib.Profile, dataBytes int64, workerCounts []int) (HierResult, error) {
	dataBytes, _ = paperScale(dataBytes, 0)
	res := HierResult{DataBytes: dataBytes}
	for _, w := range workerCounts {
		one, err := measureShuffle(profile, dataBytes, w)
		if err != nil {
			return res, fmt.Errorf("experiments: hier sweep one-level w=%d: %w", w, err)
		}
		two, err := measureSort(profile, dataBytes, sortOnly{workers: w, exchange: shuffle.ViaStoreTwoLevel})
		if err == nil {
			err = two.sortErr
		}
		if err != nil {
			return res, fmt.Errorf("experiments: hier sweep two-level w=%d: %w", w, err)
		}
		in := calib.PlanInput(profile, dataBytes)
		sp := shuffle.ProfileOf(profile.Store)
		res.Rows = append(res.Rows, HierRow{
			Workers:      w,
			Groups:       two.groups,
			OneLevel:     one,
			TwoLevel:     two.latency,
			PredictedOne: shuffle.Predict(w, in, sp).Predicted,
			PredictedTwo: shuffle.PredictHierarchical(w, two.groups, in, sp).Predicted,
		})
	}
	return res, nil
}

// String renders the ablation with the crossover marked.
func (r HierResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "One-level vs two-level shuffle (%.1f GB; groups ~ sqrt(w))\n",
		float64(r.DataBytes)/1e9)
	fmt.Fprintf(&b, "%8s %7s %14s %14s %12s %12s %8s\n",
		"workers", "groups", "1-level (s)", "2-level (s)", "model-1 (s)", "model-2 (s)", "winner")
	for _, row := range r.Rows {
		winner := "1-level"
		if row.TwoLevel < row.OneLevel {
			winner = "2-level"
		}
		fmt.Fprintf(&b, "%8d %7d %14.2f %14.2f %12.2f %12.2f %8s\n",
			row.Workers, row.Groups,
			row.OneLevel.Seconds(), row.TwoLevel.Seconds(),
			row.PredictedOne.Seconds(), row.PredictedTwo.Seconds(), winner)
	}
	return b.String()
}

// PlannerRow is one dataset size of the planner-regret study.
type PlannerRow struct {
	Bytes int64
	// Planned is the worker count the planner picks and its measured
	// latency.
	Planned        int
	PlannedLatency time.Duration
	// BestWorkers is the best grid point by measurement.
	BestWorkers int
	BestLatency time.Duration
	// Regret is PlannedLatency/BestLatency - 1 (0 = planner matched
	// the measured optimum).
	Regret float64
}

// PlannerResult quantifies Primula's central promise: the worker count
// chosen "on the fly" from the storage profile should measure within a
// few percent of the brute-force best — across dataset sizes, without
// running a sweep first.
type PlannerResult struct {
	Grid []int
	Rows []PlannerRow
}

// PlannerRegret measures every grid worker count and the planner's
// pick at each dataset size.
func PlannerRegret(profile calib.Profile, sizes []int64, grid []int) (PlannerResult, error) {
	if len(grid) == 0 {
		grid = []int{4, 8, 16, 24, 32, 48, 64, 96, 128}
	}
	res := PlannerResult{Grid: grid}
	for _, size := range sizes {
		row := PlannerRow{Bytes: size}
		for _, w := range grid {
			lat, err := measureShuffle(profile, size, w)
			if err != nil {
				return res, fmt.Errorf("experiments: planner grid w=%d: %w", w, err)
			}
			if row.BestWorkers == 0 || lat < row.BestLatency {
				row.BestWorkers = w
				row.BestLatency = lat
			}
		}
		plan, err := shuffle.Optimize(calib.PlanInput(profile, size), shuffle.ProfileOf(profile.Store))
		if err != nil {
			return res, err
		}
		row.Planned = plan.Workers
		row.PlannedLatency, err = measureShuffle(profile, size, plan.Workers)
		if err != nil {
			return res, fmt.Errorf("experiments: planner pick w=%d: %w", plan.Workers, err)
		}
		row.Regret = row.PlannedLatency.Seconds()/row.BestLatency.Seconds() - 1
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the regret study.
func (r PlannerResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Planner regret vs brute-force grid %v\n", r.Grid)
	fmt.Fprintf(&b, "%10s %9s %13s %10s %12s %9s\n",
		"size (GB)", "planned", "planned (s)", "best w", "best (s)", "regret")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.1f %9d %13.2f %10d %12.2f %8.1f%%\n",
			float64(row.Bytes)/1e9, row.Planned, row.PlannedLatency.Seconds(),
			row.BestWorkers, row.BestLatency.Seconds(), row.Regret*100)
	}
	return b.String()
}

// faultPolicy is one mitigation ladder of the fault experiment.
type faultPolicy struct {
	name       string
	maxRetries int
	speculate  bool
}

var faultPolicies = []faultPolicy{
	{name: "none"},
	{name: "retries", maxRetries: 6},
	{name: "retries+speculation", maxRetries: 6, speculate: true},
}

// FaultRow is one cell of the fault-sensitivity matrix.
type FaultRow struct {
	FailureRate float64
	// Policy names the mitigation ladder.
	Policy string
	// Succeeded reports whether the shuffle completed; an abort
	// (retries exhausted or no mitigation) is a measurement, not an
	// error.
	Succeeded bool
	// Latency is the shuffle makespan when it succeeded.
	Latency time.Duration
	// Retries and FailedAttempts are the platform's counters.
	Retries        int64
	FailedAttempts int64
	Stragglers     int64
}

// FaultResult is the fault-injection extension experiment: how the
// purely serverless shuffle behaves when the platform loses containers
// and hosts degrade — the operational risk a VM-based sort does not
// share, and the mitigation it needs.
type FaultResult struct {
	DataBytes     int64
	Workers       int
	StragglerRate float64
	Rows          []FaultRow
}

// FaultTolerance measures the shuffle under each failure rate and
// mitigation policy. Straggler injection (rate 0.15, slowdown 4) is
// constant across the matrix so the speculation column is meaningful.
func FaultTolerance(profile calib.Profile, dataBytes int64, workers int, failureRates []float64) (FaultResult, error) {
	dataBytes, workers = paperScale(dataBytes, workers)
	res := FaultResult{DataBytes: dataBytes, Workers: workers, StragglerRate: 0.15}
	profile.Faas.StragglerRate = res.StragglerRate
	profile.Faas.StragglerSlowdown = 4
	for _, rate := range failureRates {
		profile.Faas.FailureRate = rate
		for _, policy := range faultPolicies {
			m, err := measureSort(profile, dataBytes, sortOnly{
				workers: workers, maxRetries: policy.maxRetries, speculate: policy.speculate,
			})
			if err != nil {
				return res, fmt.Errorf("experiments: fault rate=%g policy=%s: %w", rate, policy.name, err)
			}
			res.Rows = append(res.Rows, FaultRow{
				FailureRate:    rate,
				Policy:         policy.name,
				Succeeded:      m.sortErr == nil,
				Latency:        m.latency,
				Retries:        m.meter.Retries,
				FailedAttempts: m.meter.FailedAttempts,
				Stragglers:     m.meter.Stragglers,
			})
		}
	}
	return res, nil
}

// String renders the fault matrix.
func (r FaultResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shuffle under injected faults (%.1f GB, %d workers, stragglers %.0f%% at 4x)\n",
		float64(r.DataBytes)/1e9, r.Workers, r.StragglerRate*100)
	fmt.Fprintf(&b, "%10s %-22s %10s %12s %8s %8s %11s\n",
		"fail rate", "policy", "ok", "latency (s)", "retries", "failed", "stragglers")
	for _, row := range r.Rows {
		lat := "-"
		if row.Succeeded {
			lat = fmt.Sprintf("%.2f", row.Latency.Seconds())
		}
		fmt.Fprintf(&b, "%9.0f%% %-22s %10v %12s %8d %8d %11d\n",
			row.FailureRate*100, row.Policy, row.Succeeded, lat,
			row.Retries, row.FailedAttempts, row.Stragglers)
	}
	return b.String()
}
