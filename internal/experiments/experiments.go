// Package experiments is the reproduction harness: each function
// regenerates one table, figure, or in-text claim of the paper on the
// simulated cloud, returning typed rows the CLI and the benchmarks
// both render.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/methcomp"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// Paper's published Table 1 values, for side-by-side rendering.
const (
	PaperServerlessLatency = 83.32
	PaperServerlessCost    = 0.008
	PaperVMLatency         = 142.77
	PaperVMCost            = 0.010
	PaperDataBytes         = int64(3500e6)
	PaperWorkers           = 8
)

// StrategyKind selects a pipeline configuration.
type StrategyKind int

// The two configurations of Figure 1 / Table 1, plus the cache-
// supported extension the paper's §1 motivates (ElastiCache-style
// in-memory exchange), in cold (per-job provisioning) and warm
// (pre-provisioned cluster) variants.
const (
	PurelyServerless StrategyKind = iota + 1
	VMSupported
	CacheSupported
	CacheSupportedWarm
	// AutoPlanned lets the cost-based planner (internal/autoplan) pick
	// the exchange strategy and its configuration per job — the
	// middleware self-configuring at runtime instead of being told.
	AutoPlanned
)

func (k StrategyKind) String() string {
	switch k {
	case PurelyServerless:
		return `"Purely" serverless`
	case VMSupported:
		return "VM-supported"
	case CacheSupported:
		return "Cache-supported"
	case CacheSupportedWarm:
		return "Cache-supported (warm)"
	case AutoPlanned:
		return "Auto-planned"
	default:
		return fmt.Sprintf("StrategyKind(%d)", int(k))
	}
}

// PipelineRun is one end-to-end METHCOMP pipeline execution.
type PipelineRun struct {
	Kind    StrategyKind
	Latency time.Duration
	// CostUSD is the run's metered cost; SessionUSD is the closing bill
	// of the one-shot session it ran in. Failure recovery may not lose
	// or invent money: Report.TotalUSD() must equal SessionUSD exactly.
	CostUSD    float64
	SessionUSD float64
	Report     *core.RunReport
	// FaasStats summarizes the platform's activation log for the run.
	FaasStats faas.Stats
	// AutoDecision is the planner's candidate table (AutoPlanned runs
	// only).
	AutoDecision *autoplan.Decision
	// Fired is the chaos log: what was injected and what it hit (nil
	// for a run with no fault plan).
	Fired []chaos.Fired
	// Err is the stage failure of a run that started but did not
	// finish; Report is complete either way.
	Err error
}

// pipelineSpec configures one pipeline execution.
type pipelineSpec struct {
	kind      StrategyKind
	dataBytes int64
	workers   int
	// spot stages the VM exchange through a spot instance, the
	// configuration preemption actually threatens.
	spot bool
	// retries is the sort stage's invocation-level retry budget.
	retries int
	// plan, when set, is armed against the run's cloud.
	plan *chaos.Plan
}

// runPipeline is the one place the METHCOMP pipeline is built, staged
// and submitted: a one-shot session at full scale with sized payloads
// (no RAM cost for multi-GB datasets). A run that started and failed
// is a measurement (run.Err), not an error.
func runPipeline(profile calib.Profile, spec pipelineSpec) (PipelineRun, error) {
	run := PipelineRun{Kind: spec.kind}
	sess, err := session.Open(profile, session.Options{Chaos: spec.plan})
	if err != nil {
		return run, err
	}
	var auto *core.AutoExchange
	rep, runErr := sess.Submit(session.Job{
		Name: "methcomp",
		Build: func(rig *calib.Rig) (*core.Workflow, error) {
			var strategy core.ExchangeStrategy
			switch spec.kind {
			case PurelyServerless:
				strategy = core.ObjectStorageExchange{}
			case VMSupported:
				ve := rig.VMStrategy()
				ve.Spot = spec.spot
				strategy = ve
			case CacheSupported:
				strategy = rig.CacheStrategy(false)
			case CacheSupportedWarm:
				strategy = rig.CacheStrategy(true)
			case AutoPlanned:
				auto = rig.AutoStrategy(autoplan.Objective{})
				strategy = auto
			default:
				return nil, fmt.Errorf("experiments: unknown strategy %d", spec.kind)
			}
			sortParams := rig.SortParams("data", "sample.bed", "work", "sorted/", spec.workers)
			sortParams.MaxRetries = spec.retries
			if spec.kind == AutoPlanned {
				// The seer sweeps worker counts itself; a pinned count would
				// collapse its search to the caller's guess.
				sortParams.Workers = 0
			}
			return genomics.BuildPipeline(genomics.PipelineConfig{
				InputBucket: "data", InputKey: "sample.bed",
				WorkBucket:  "work",
				Strategy:    strategy,
				Sort:        sortParams,
				EncodeBps:   rig.Profile.EncodeBps,
				EncodeRatio: rig.Profile.EncodeRatio,
			})
		},
		Prepare: func(p *des.Proc, rig *calib.Rig) error {
			c := objectstore.NewClient(rig.Store)
			for _, b := range []string{"data", "work"} {
				if err := c.CreateBucket(p, b); err != nil {
					return err
				}
			}
			return c.Put(p, "data", "sample.bed", payload.Sized(spec.dataBytes))
		},
	})
	if rep == nil {
		return run, runErr
	}
	run.Err = runErr
	run.Report = rep
	run.Latency = rep.Latency()
	run.CostUSD = rep.Cost.Total()
	run.FaasStats = faas.Summarize(sess.Rig().Platform.Activations())
	if auto != nil {
		run.AutoDecision = auto.LastDecision
	}
	bill, err := sess.Close()
	if err != nil {
		return run, err
	}
	run.SessionUSD = bill.TotalUSD
	if armed := sess.Chaos(); armed != nil {
		run.Fired = armed.Fired()
	}
	return run, nil
}

// RunPipeline executes the pipeline once, fault-free on on-demand
// capacity, and returns its measured latency and cost.
func RunPipeline(profile calib.Profile, kind StrategyKind, dataBytes int64, workers int) (PipelineRun, error) {
	run, err := runPipeline(profile, pipelineSpec{kind: kind, dataBytes: dataBytes, workers: workers})
	if err == nil {
		err = run.Err
	}
	return run, err
}

// paperScale applies the repo-wide convention that a non-positive
// volume or parallelism means the paper's.
func paperScale(dataBytes int64, workers int) (int64, int) {
	if dataBytes <= 0 {
		dataBytes = PaperDataBytes
	}
	if workers <= 0 {
		workers = PaperWorkers
	}
	return dataBytes, workers
}

// PipelineTable is the pipeline run once per configuration at one
// scale: Table 1, and the same table extended to the substrates the
// paper names but does not measure.
type PipelineTable struct {
	DataBytes int64
	Workers   int
	Rows      []PipelineRun
	// substrates selects ThreeWay's layout (sort-stage detail in place
	// of the paper's published columns).
	substrates bool
}

// runKinds is the one loop over RunPipeline: each configuration once
// at the given scale.
func runKinds(profile calib.Profile, dataBytes int64, workers int, kinds ...StrategyKind) (PipelineTable, error) {
	dataBytes, workers = paperScale(dataBytes, workers)
	res := PipelineTable{DataBytes: dataBytes, Workers: workers}
	for _, kind := range kinds {
		run, err := RunPipeline(profile, kind, dataBytes, workers)
		if err != nil {
			return res, fmt.Errorf("experiments: %v: %w", kind, err)
		}
		res.Rows = append(res.Rows, run)
	}
	return res, nil
}

// Table1 reproduces Table 1: both configurations at the paper's scale
// (or the given overrides).
func Table1(profile calib.Profile, dataBytes int64, workers int) (PipelineTable, error) {
	return runKinds(profile, dataBytes, workers, PurelyServerless, VMSupported)
}

// Table1Auto extends the Table 1 reproduction with the auto-planned
// row: the same pipeline, but the exchange strategy and its
// configuration chosen by the planner at runtime. The auto row should
// never lose to both measured configurations — if it does, the cost
// model has drifted from the simulation.
func Table1Auto(profile calib.Profile, dataBytes int64, workers int) (PipelineTable, error) {
	return runKinds(profile, dataBytes, workers, PurelyServerless, VMSupported, AutoPlanned)
}

// ThreeWay extends Table 1 with the cache-supported exchange the paper
// names but does not measure: every data-passing substrate the
// introduction discusses (object storage, VM, cold cache, warm cache)
// on the same pipeline.
func ThreeWay(profile calib.Profile, dataBytes int64, workers int) (PipelineTable, error) {
	res, err := runKinds(profile, dataBytes, workers,
		PurelyServerless, VMSupported, CacheSupported, CacheSupportedWarm)
	res.substrates = true
	return res, err
}

// String renders the reproduced table alongside the paper's values, or
// ThreeWay's extension table.
func (r PipelineTable) String() string {
	var b strings.Builder
	if r.substrates {
		fmt.Fprintf(&b, "Extension: all data-exchange substrates, %.1f GB input, parallelism %d\n",
			float64(r.DataBytes)/1e9, r.Workers)
		fmt.Fprintf(&b, "%-24s %12s %10s %24s\n", "Configuration", "Latency (s)", "Cost ($)", "sort-stage detail")
		for _, row := range r.Rows {
			detail := ""
			if sr, ok := row.Report.Stage("sort"); ok {
				detail = fmt.Sprintf("sort %.2fs, $%.4f", sr.Duration().Seconds(), sr.Cost.Total())
			}
			fmt.Fprintf(&b, "%-24s %12.2f %10.4f %24s\n",
				row.Kind, row.Latency.Seconds(), row.CostUSD, detail)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "Table 1: METHCOMP pipeline, %.1f GB input, parallelism %d\n",
		float64(r.DataBytes)/1e9, r.Workers)
	fmt.Fprintf(&b, "%-22s %12s %10s %14s %12s\n",
		"Configuration", "Latency (s)", "Cost ($)", "Paper lat (s)", "Paper ($)")
	for _, row := range r.Rows {
		switch row.Kind {
		case PurelyServerless:
			fmt.Fprintf(&b, "%-22s %12.2f %10.4f %14.2f %12.3f\n",
				row.Kind, row.Latency.Seconds(), row.CostUSD,
				PaperServerlessLatency, PaperServerlessCost)
		case VMSupported:
			fmt.Fprintf(&b, "%-22s %12.2f %10.4f %14.2f %12.3f\n",
				row.Kind, row.Latency.Seconds(), row.CostUSD,
				PaperVMLatency, PaperVMCost)
		default:
			// Configurations the paper did not measure have no
			// published columns.
			fmt.Fprintf(&b, "%-22s %12.2f %10.4f %14s %12s\n",
				row.Kind, row.Latency.Seconds(), row.CostUSD, "-", "-")
		}
	}
	var serverless, vmRun *PipelineRun
	for i := range r.Rows {
		switch r.Rows[i].Kind {
		case PurelyServerless:
			serverless = &r.Rows[i]
		case VMSupported:
			vmRun = &r.Rows[i]
		}
	}
	if serverless != nil && vmRun != nil {
		fmt.Fprintf(&b, "speedup (VM / serverless): %.2fx  (paper: %.2fx)\n",
			vmRun.Latency.Seconds()/serverless.Latency.Seconds(),
			PaperVMLatency/PaperServerlessLatency)
	}
	return b.String()
}

// StageTrace renders per-stage timelines of both runs (the executable
// counterpart of Figure 1's two architectures).
func (r PipelineTable) StageTrace() string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s\n", row.Kind)
		base := row.Report.Start
		for _, s := range row.Report.Stages {
			fmt.Fprintf(&b, "  %-8s %10.2fs -> %10.2fs (%8.2fs)  cost $%0.6f\n",
				s.Name, (s.Start - base).Seconds(), (s.End - base).Seconds(),
				s.Duration().Seconds(), s.Cost.Total())
		}
		fmt.Fprintf(&b, "  %-8s %23s (%8.2fs)  cost $%0.6f\n",
			"TOTAL", "", row.Latency.Seconds(), row.CostUSD)
		for _, line := range strings.Split(strings.TrimRight(row.FaasStats.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

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
		pred := shuffle.Predict(w, planInput(profile, dataBytes), shuffle.ProfileOf(profile.Store))
		res.Rows = append(res.Rows, SweepRow{Workers: w, Measured: measured, Predicted: pred.Predicted})
	}
	plan, err := shuffle.Optimize(planInput(profile, dataBytes), shuffle.ProfileOf(profile.Store))
	if err != nil {
		return res, err
	}
	res.Planned = plan.Workers
	return res, nil
}

func planInput(profile calib.Profile, dataBytes int64) shuffle.PlanInput {
	return shuffle.PlanInput{
		DataBytes:      dataBytes,
		MaxWorkers:     256,
		WorkerMemBytes: int64(profile.Faas.MemoryMB) << 20,
		PartitionBps:   profile.PartitionBps,
		MergeBps:       profile.MergeBps,
		Startup:        profile.Faas.ColdStart,
	}
}

// sortOnly configures one measurement of the shuffle alone.
type sortOnly struct {
	workers int
	// hierarchical runs the two-level shuffle (groups auto-picked near
	// sqrt(workers)) instead of the one-level all-to-all.
	hierarchical bool
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

// measureSort is the one sort-only runner: a fresh rig, the two
// buckets, a sized input object, and one timed sort.
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
		PartitionBps: profile.PartitionBps,
		MergeBps:     profile.MergeBps,
		MemoryMB:     profile.Faas.MemoryMB,
		MaxRetries:   so.maxRetries,
		Speculate:    so.speculate,
	}
	var setupErr error
	rig.Sim.Spawn("sort", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		for _, b := range []string{"data", "work"} {
			if setupErr = c.CreateBucket(p, b); setupErr != nil {
				return
			}
		}
		if setupErr = c.Put(p, "data", "in", payload.Sized(dataBytes)); setupErr != nil {
			return
		}
		start := p.Now()
		if so.hierarchical {
			var res shuffle.HierResult
			res, m.sortErr = rig.Shuffle.SortHierarchical(p, shuffle.HierSpec{Spec: spec})
			m.groups = res.Groups
		} else {
			_, m.sortErr = rig.Shuffle.Sort(p, spec)
		}
		m.latency = p.Now() - start
	})
	if err := rig.Sim.Run(); err != nil {
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

// SizeRow is one point of the dataset-size sweep.
type SizeRow struct {
	Bytes         int64
	Serverless    time.Duration
	VM            time.Duration
	ServerlessUSD float64
	VMUSD         float64
}

// SizeSweepResult shows how the Table 1 comparison shifts with dataset
// size (VM boot amortization ablation).
type SizeSweepResult struct {
	Workers int
	Rows    []SizeRow
}

// SizeSweep runs both configurations across dataset sizes.
func SizeSweep(profile calib.Profile, sizes []int64, workers int) (SizeSweepResult, error) {
	_, workers = paperScale(0, workers)
	res := SizeSweepResult{Workers: workers}
	for _, size := range sizes {
		runs, err := runKinds(profile, size, workers, PurelyServerless, VMSupported)
		if err != nil {
			return res, err
		}
		sl, vmRun := runs.Rows[0], runs.Rows[1]
		res.Rows = append(res.Rows, SizeRow{
			Bytes:         size,
			Serverless:    sl.Latency,
			VM:            vmRun.Latency,
			ServerlessUSD: sl.CostUSD,
			VMUSD:         vmRun.CostUSD,
		})
	}
	return res, nil
}

// String renders the size sweep.
func (r SizeSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipeline latency & cost vs dataset size (parallelism %d)\n", r.Workers)
	fmt.Fprintf(&b, "%10s %16s %12s %14s %12s %9s\n",
		"size (GB)", "serverless (s)", "vm (s)", "serverless ($)", "vm ($)", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.1f %16.2f %12.2f %14.4f %12.4f %8.2fx\n",
			float64(row.Bytes)/1e9, row.Serverless.Seconds(), row.VM.Seconds(),
			row.ServerlessUSD, row.VMUSD,
			row.VM.Seconds()/row.Serverless.Seconds())
	}
	return b.String()
}

// CompressionRow is one point of the codec comparison.
type CompressionRow struct {
	Records int
	methcomp.Comparison
}

// CompressionResult reproduces the §2.1 claim that METHCOMP
// compresses methylation data about an order of magnitude better than
// gzip.
type CompressionResult struct {
	Rows []CompressionRow
}

// Compression compares the codec against gzip on synthetic WGBS data.
func Compression(recordCounts []int, seed int64) (CompressionResult, error) {
	var res CompressionResult
	for _, n := range recordCounts {
		recs := bed.Generate(bed.GenConfig{Records: n, Seed: seed, Sorted: true})
		cmp, err := methcomp.Compare(recs)
		if err != nil {
			return res, fmt.Errorf("experiments: compression n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, CompressionRow{Records: n, Comparison: cmp})
	}
	return res, nil
}

// String renders the comparison.
func (r CompressionResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "METHCOMP vs gzip on synthetic WGBS bedMethyl (sorted)")
	fmt.Fprintf(&b, "%10s %12s %12s %12s %10s %10s %11s\n",
		"records", "raw (B)", "methcomp", "gzip", "mc ratio", "gz ratio", "advantage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %12d %12d %12d %9.1fx %9.1fx %10.1fx\n",
			row.Records, row.RawBytes, row.CompressedBytes, row.GzipBytes,
			row.Ratio, row.GzipRatio, row.Advantage)
	}
	return b.String()
}

// ThrottleRow is one point of the ops-throttle demonstration.
type ThrottleRow struct {
	Clients     int
	AchievedOps float64
}

// ThrottleResult demonstrates the §1 claim that object storage
// sustains only a few thousand operations/s no matter how many
// clients hammer it.
type ThrottleResult struct {
	ConfiguredWriteOps float64
	Rows               []ThrottleRow
}

// StoreThrottle measures achieved aggregate write ops/s for growing
// client counts.
func StoreThrottle(profile calib.Profile, clients []int, opsPerClient int) (ThrottleResult, error) {
	res := ThrottleResult{ConfiguredWriteOps: profile.Store.WriteOpsPerSec}
	for _, n := range clients {
		rig, err := calib.NewRig(profile)
		if err != nil {
			return res, err
		}
		var runErr error
		rig.Sim.Spawn("throttle", func(p *des.Proc) {
			c := objectstore.NewClient(rig.Store)
			if err := c.CreateBucket(p, "b"); err != nil {
				runErr = err
				return
			}
			wg := des.NewWaitGroup(rig.Sim)
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				p.Spawn(fmt.Sprintf("client%d", i), func(cp *des.Proc) {
					defer wg.Done()
					for k := 0; k < opsPerClient; k++ {
						if err := c.Put(cp, "b",
							fmt.Sprintf("c%d/k%d", i, k), payload.Sized(0)); err != nil {
							runErr = err
							return
						}
					}
				})
			}
			wg.Wait(p)
		})
		if err := rig.Sim.Run(); err != nil {
			return res, err
		}
		if runErr != nil {
			return res, runErr
		}
		elapsed := rig.Sim.Now().Seconds()
		total := float64(n * opsPerClient)
		res.Rows = append(res.Rows, ThrottleRow{Clients: n, AchievedOps: total / elapsed})
	}
	return res, nil
}

// String renders the throttle result.
func (r ThrottleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Aggregate write ops/s vs client count (service limit %.0f/s)\n",
		r.ConfiguredWriteOps)
	fmt.Fprintf(&b, "%10s %16s\n", "clients", "achieved ops/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %16.0f\n", row.Clients, row.AchievedOps)
	}
	return b.String()
}
