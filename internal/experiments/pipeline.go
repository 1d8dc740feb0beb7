package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
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
	Kind StrategyKind
	// DataBytes and MemoryMB are the input volume and the function
	// memory grant the run was configured with.
	DataBytes int64
	MemoryMB  int
	Latency   time.Duration
	// CostUSD is the run's metered cost; SessionUSD is the closing bill
	// of the one-shot session it ran in, the same sum plus standing cost.
	// The independent check of both is the rig's global meters.
	CostUSD    float64
	SessionUSD float64
	Report     *core.RunReport
	rig        *calib.Rig
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
	run := PipelineRun{Kind: spec.kind, DataBytes: spec.dataBytes, MemoryMB: profile.Faas.MemoryMB}
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
			return stageInput(p, rig.Store, "sample.bed", spec.dataBytes)
		},
	})
	if rep == nil {
		return run, runErr
	}
	run.Err = runErr
	run.Report, run.rig = rep, sess.Rig()
	run.Latency = rep.Latency()
	run.CostUSD = rep.MeteredUSD()
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

// stageInput creates the data and work buckets every runner reads from
// and writes to, and uploads a sized input object of dataBytes.
func stageInput(p *des.Proc, store *objectstore.Service, key string, dataBytes int64) error {
	c := objectstore.NewClient(store)
	for _, b := range []string{"data", "work"} {
		if err := c.CreateBucket(p, b); err != nil {
			return err
		}
	}
	return c.Put(p, "data", key, payload.Sized(dataBytes))
}

// FallbackSlabs counts the slabs the run rerouted through object
// storage after losing cache capacity.
func (r PipelineRun) FallbackSlabs() int {
	var n int
	for _, sr := range r.Report.Stages {
		n += sr.FallbackSlabs
	}
	return n
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

// PipelineTable is a list of pipeline runs, the one result behind
// every experiment that is a loop over RunPipeline: Table 1, its
// extension to the substrates the paper names but does not measure,
// the bill by component, and the dataset-size and function-memory
// ablations. Each constructor sets the layout String renders.
type PipelineTable struct {
	// DataBytes is the common volume (zero for the size sweep, whose
	// rows carry their own); Workers the common parallelism.
	DataBytes int64
	Workers   int
	Rows      []PipelineRun

	layout tableLayout
}

type tableLayout int

const (
	paperLayout     tableLayout = iota // Table1: ours beside the paper's published columns
	substrateLayout                    // ThreeWay: sort-stage detail
	costLayout                         // CostBreakdown: the bill by component
	sizeLayout                         // SizeSweep: a serverless/VM pair per volume
	memoryLayout                       // MemorySweep: a row per memory grant
)

// runKinds is the one loop over RunPipeline: each configuration once
// at the given scale, appended to the table.
func (t *PipelineTable) runKinds(profile calib.Profile, dataBytes int64, kinds ...StrategyKind) error {
	for _, kind := range kinds {
		run, err := RunPipeline(profile, kind, dataBytes, t.Workers)
		if err != nil {
			return fmt.Errorf("experiments: %v (%d bytes, %d MB functions): %w",
				kind, dataBytes, profile.Faas.MemoryMB, err)
		}
		t.Rows = append(t.Rows, run)
	}
	return nil
}

// pipelineTable runs kinds at one scale under the given layout.
func pipelineTable(profile calib.Profile, dataBytes int64, workers int, layout tableLayout, kinds ...StrategyKind) (PipelineTable, error) {
	dataBytes, workers = paperScale(dataBytes, workers)
	t := PipelineTable{DataBytes: dataBytes, Workers: workers, layout: layout}
	return t, t.runKinds(profile, dataBytes, kinds...)
}

// Table1 reproduces Table 1: both configurations at the paper's scale
// (or the given overrides).
func Table1(profile calib.Profile, dataBytes int64, workers int) (PipelineTable, error) {
	return pipelineTable(profile, dataBytes, workers, paperLayout, PurelyServerless, VMSupported)
}

// Table1Auto extends the Table 1 reproduction with the auto-planned
// row: the same pipeline, but the exchange strategy and its
// configuration chosen by the planner at runtime. The auto row should
// never lose to both measured configurations — if it does, the cost
// model has drifted from the simulation.
func Table1Auto(profile calib.Profile, dataBytes int64, workers int) (PipelineTable, error) {
	return pipelineTable(profile, dataBytes, workers, paperLayout, PurelyServerless, VMSupported, AutoPlanned)
}

// ThreeWay extends Table 1 with the cache-supported exchange the paper
// names but does not measure: every data-passing substrate the
// introduction discusses (object storage, VM, cold cache, warm cache)
// on the same pipeline.
func ThreeWay(profile calib.Profile, dataBytes int64, workers int) (PipelineTable, error) {
	return pipelineTable(profile, dataBytes, workers, substrateLayout,
		PurelyServerless, VMSupported, CacheSupported, CacheSupportedWarm)
}

// CostBreakdown runs each configuration (default: Table 1's two) and
// splits its bill by component, the itemized counterpart of Table 1's
// cost column.
func CostBreakdown(profile calib.Profile, dataBytes int64, workers int, kinds []StrategyKind) (PipelineTable, error) {
	if len(kinds) == 0 {
		kinds = []StrategyKind{PurelyServerless, VMSupported}
	}
	return pipelineTable(profile, dataBytes, workers, costLayout, kinds...)
}

// SizeSweep runs both Table 1 configurations across dataset sizes: how
// the comparison shifts as the VM's boot amortizes. Rows come in
// (serverless, VM) pairs, one pair per size.
func SizeSweep(profile calib.Profile, sizes []int64, workers int) (PipelineTable, error) {
	_, workers = paperScale(0, workers)
	t := PipelineTable{Workers: workers, layout: sizeLayout}
	for _, size := range sizes {
		if err := t.runKinds(profile, size, PurelyServerless, VMSupported); err != nil {
			return t, err
		}
	}
	return t, nil
}

// MemorySweep runs the purely serverless pipeline at each function
// memory grant: the paper allocates 2 GB per function without
// justification; this ablation shows the latency/cost trade behind
// that choice (CPU scales with the grant, like Lambda, and so does the
// GB-second bill).
func MemorySweep(profile calib.Profile, dataBytes int64, workers int, memsMB []int) (PipelineTable, error) {
	dataBytes, workers = paperScale(dataBytes, workers)
	t := PipelineTable{DataBytes: dataBytes, Workers: workers, layout: memoryLayout}
	for _, mem := range memsMB {
		profile.Faas.MemoryMB = mem // CPU share and billing follow the grant
		if err := t.runKinds(profile, dataBytes, PurelyServerless); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Decide runs the cost-based planner over the profile's cloud at the
// given volume without executing anything: pure prediction, the
// decision table (the candidates behind "a seer knows best") the CLI
// and the autoplan example print.
func Decide(profile calib.Profile, dataBytes int64, obj autoplan.Objective) (autoplan.Decision, error) {
	dataBytes, _ = paperScale(dataBytes, 0)
	dec, err := autoplan.Plan(calib.PlanWorkload(profile, dataBytes), calib.PlanEnv(profile), obj)
	if err != nil {
		return dec, fmt.Errorf("experiments: decide %d bytes: %w", dataBytes, err)
	}
	return dec, nil
}

// Components splits the run's metered bill the way the paper accounts
// it, summed over the stages. The four sum to the run's CostUSD.
func (r PipelineRun) Components() billing.StageCost {
	var c billing.StageCost
	for _, sr := range r.Report.Stages {
		c.Add(sr.Cost)
	}
	return c
}

// paperTable1 is the paper's published Table 1: latency (s), cost ($).
var paperTable1 = map[StrategyKind][2]float64{
	PurelyServerless: {PaperServerlessLatency, PaperServerlessCost},
	VMSupported:      {PaperVMLatency, PaperVMCost},
}

// String renders the table in its constructor's layout.
func (t PipelineTable) String() string {
	var b strings.Builder
	gb := float64(t.DataBytes) / 1e9
	switch t.layout {
	case paperLayout:
		fmt.Fprintf(&b, "Table 1: METHCOMP pipeline, %.1f GB input, parallelism %d\n", gb, t.Workers)
		fmt.Fprintf(&b, "%-22s %12s %10s %14s %12s\n",
			"Configuration", "Latency (s)", "Cost ($)", "Paper lat (s)", "Paper ($)")
		byKind := make(map[StrategyKind]PipelineRun)
		for _, row := range t.Rows {
			byKind[row.Kind] = row
			// Configurations the paper did not measure have no
			// published columns.
			paperLat, paperUSD := "-", "-"
			if pub, ok := paperTable1[row.Kind]; ok {
				paperLat, paperUSD = fmt.Sprintf("%.2f", pub[0]), fmt.Sprintf("%.3f", pub[1])
			}
			fmt.Fprintf(&b, "%-22s %12.2f %10.4f %14s %12s\n",
				row.Kind, row.Latency.Seconds(), row.CostUSD, paperLat, paperUSD)
		}
		serverless, ok1 := byKind[PurelyServerless]
		vmRun, ok2 := byKind[VMSupported]
		if ok1 && ok2 {
			fmt.Fprintf(&b, "speedup (VM / serverless): %.2fx  (paper: %.2fx)\n",
				vmRun.Latency.Seconds()/serverless.Latency.Seconds(),
				PaperVMLatency/PaperServerlessLatency)
		}
	case substrateLayout:
		fmt.Fprintf(&b, "Extension: all data-exchange substrates, %.1f GB input, parallelism %d\n", gb, t.Workers)
		fmt.Fprintf(&b, "%-24s %12s %10s %24s\n", "Configuration", "Latency (s)", "Cost ($)", "sort-stage detail")
		for _, row := range t.Rows {
			detail := ""
			if sr, ok := row.Report.Stage("sort"); ok {
				detail = fmt.Sprintf("sort %.2fs, $%.4f", sr.Duration().Seconds(), sr.Cost.Total())
			}
			fmt.Fprintf(&b, "%-24s %12.2f %10.4f %24s\n",
				row.Kind, row.Latency.Seconds(), row.CostUSD, detail)
		}
	case costLayout:
		fmt.Fprintf(&b, "Cost breakdown per configuration (%.1f GB, parallelism %d)\n", gb, t.Workers)
		fmt.Fprintf(&b, "%-24s %11s %10s %10s %10s %10s\n",
			"Configuration", "functions", "storage", "vm", "cache", "total")
		for _, row := range t.Rows {
			c := row.Components()
			fmt.Fprintf(&b, "%-24s %11.4f %10.4f %10.4f %10.4f %10.4f\n",
				row.Kind, c.Functions, c.Storage, c.VM, c.Cache, row.CostUSD)
		}
	case sizeLayout:
		fmt.Fprintf(&b, "Pipeline latency & cost vs dataset size (parallelism %d)\n", t.Workers)
		fmt.Fprintf(&b, "%10s %16s %12s %14s %12s %9s\n",
			"size (GB)", "serverless (s)", "vm (s)", "serverless ($)", "vm ($)", "speedup")
		for i := 0; i+1 < len(t.Rows); i += 2 {
			sl, vmRun := t.Rows[i], t.Rows[i+1]
			fmt.Fprintf(&b, "%10.1f %16.2f %12.2f %14.4f %12.4f %8.2fx\n",
				float64(sl.DataBytes)/1e9, sl.Latency.Seconds(), vmRun.Latency.Seconds(),
				sl.CostUSD, vmRun.CostUSD, vmRun.Latency.Seconds()/sl.Latency.Seconds())
		}
	case memoryLayout:
		fmt.Fprintf(&b, "Pipeline latency & cost vs function memory (%.1f GB, parallelism %d)\n", gb, t.Workers)
		fmt.Fprintf(&b, "%12s %14s %10s\n", "memory (MB)", "latency (s)", "cost ($)")
		for _, row := range t.Rows {
			marker := ""
			if row.MemoryMB == 2048 {
				marker = "  <- paper's grant"
			}
			fmt.Fprintf(&b, "%12d %14.2f %10.4f%s\n",
				row.MemoryMB, row.Latency.Seconds(), row.CostUSD, marker)
		}
	}
	return b.String()
}

// StageTrace renders per-stage timelines of the runs (the executable
// counterpart of Figure 1's two architectures).
func (t PipelineTable) StageTrace() string {
	var b strings.Builder
	for _, row := range t.Rows {
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
