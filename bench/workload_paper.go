package main

import (
	"fmt"
	"math"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// The paper's published Table 1 (3.5 GB METHCOMP pipeline, 8 workers).
const (
	paperServerlessLatency = 83.32
	paperServerlessCost    = 0.008
	paperVMLatency         = 142.77
	paperVMCost            = 0.010
	paperDataBytes         = int64(3500e6)
	paperWorkers           = 8
)

// Golden simulated numbers at seed 0 (the shipped profile seed): what
// `faasbench -experiment table1` and `-experiment workersweep` print
// at the commit that defined this benchmark.
const (
	goldenServerlessLatency = 73.42
	goldenVMLatency         = 143.94
	goldenSweepBest         = 8.32
	goldenSweepBestWorkers  = 48
)

// paperSweep is the paper's own experiment: the pipeline under every
// exchange, then the shuffle alone across the worker sweep.
type paperSweep struct {
	seed      int64
	profile   calib.Profile
	dataBytes int64
	pipelines []exchange
	sweep     []int
}

func (w *paperSweep) name() string { return "paper-sweep" }

func (w *paperSweep) prepare(seed int64, short bool) error {
	w.seed = seed
	w.profile = calib.Paper()
	w.profile.Seed = seedFor(seed, streamProfile, w.profile.Seed)
	w.dataBytes = paperDataBytes
	w.pipelines = []exchange{objectStorage, vmStaged, cacheCold, cacheWarm, autoPlanned}
	w.sweep = []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	if short {
		w.dataBytes = 350e6
		w.sweep = []int{4, 16, 48, 96}
	}
	return nil
}

// sweepPoint is the shuffle alone at one worker count.
type sweepPoint struct {
	workers   int
	measured  time.Duration
	predicted time.Duration
	counters  counters
}

func (w *paperSweep) planInput() shuffle.PlanInput {
	return shuffle.PlanInput{
		DataBytes:      w.dataBytes,
		MaxWorkers:     256,
		WorkerMemBytes: int64(w.profile.Faas.MemoryMB) << 20,
		PartitionBps:   w.profile.PartitionBps,
		MergeBps:       w.profile.MergeBps,
		Startup:        w.profile.Faas.ColdStart,
	}
}

func (w *paperSweep) measureShuffle(workers int, tr *tracer, unit *span) (sweepPoint, error) {
	pt := sweepPoint{workers: workers}
	rig, err := calib.NewRig(w.profile)
	if err != nil {
		return pt, err
	}
	var (
		staged meters
		runErr error
	)
	rig.Sim.Spawn("sweep", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		for _, b := range []string{"data", "work"} {
			if runErr = c.CreateBucket(p, b); runErr != nil {
				return
			}
		}
		if runErr = c.Put(p, "data", "in", payload.Sized(w.dataBytes)); runErr != nil {
			return
		}
		staged = readMeters(rig)
		start := p.Now()
		stage := tr.stage(unit, "sort", start)
		defer func() { tr.endStage(stage, p.Now()) }()
		_, runErr = rig.Shuffle.Sort(p, shuffle.Spec{
			InputBucket: "data", InputKey: "in",
			OutputBucket: "work", OutputPrefix: "sorted/",
			Workers:      workers,
			PartitionBps: w.profile.PartitionBps,
			MergeBps:     w.profile.MergeBps,
			MemoryMB:     w.profile.Faas.MemoryMB,
		})
		pt.measured = p.Now() - start
	})
	if err := rig.Sim.Run(); err != nil {
		return pt, err
	}
	if runErr != nil {
		return pt, runErr
	}
	pt.counters = pipelineCounters(rig, staged, readMeters(rig))
	pt.predicted = shuffle.Predict(workers, w.planInput(), shuffle.ProfileOf(w.profile.Store)).Predicted
	return pt, nil
}

func (w *paperSweep) rep(tr *tracer, clk *hostClock) (*outcome, error) {
	out := newOutcome()
	runs := make(map[exchange]*pipelineResult, len(w.pipelines))
	for _, x := range w.pipelines {
		spec := pipelineSpec{
			label:    "pipeline/" + x.String(),
			profile:  w.profile,
			exchange: x,
			workers:  paperWorkers,
			input:    payload.Sized(w.dataBytes),
		}
		res, err := runUnit(spec, tr, clk, out)
		if err != nil {
			return nil, err
		}
		runs[x] = res
	}
	points := make([]sweepPoint, 0, len(w.sweep))
	for _, n := range w.sweep {
		sp := tr.begin(fmt.Sprintf("sweep/w%d", n), kindUnit)
		pt, err := w.measureShuffle(n, tr, sp)
		tr.end(sp)
		clk.tick()
		out.attempted++
		if err != nil {
			out.fail("sweep w=%d: %v", n, err)
			continue
		}
		out.counters.add(pt.counters)
		tr.annotate(sp, pt.measured, pt.counters)
		points = append(points, pt)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("paper-sweep: every sweep point failed")
	}

	serverless, vmRun, auto := runs[objectStorage], runs[vmStaged], runs[autoPlanned]
	best := points[0]
	for _, pt := range points[1:] {
		if pt.measured < best.measured {
			best = pt
		}
	}
	bestFixed := math.Inf(1)
	for x, r := range runs {
		if x != autoPlanned {
			bestFixed = math.Min(bestFixed, r.report.Latency().Seconds())
		}
	}
	var predictErr float64
	for _, pt := range points {
		if pt.workers == 8 || pt.workers == 48 || pt.workers == 128 {
			e := math.Abs(pt.predicted.Seconds()-pt.measured.Seconds()) / pt.measured.Seconds() * 100
			predictErr = math.Max(predictErr, e)
		}
	}

	out.sim["virtual_s"] = serverless.report.Latency().Seconds()
	out.sim["usd"] = serverless.usd()
	out.sim["fast_virtual_s"] = best.measured.Seconds()
	out.sim["tail_virtual_s"] = vmRun.report.Latency().Seconds()
	out.sim["slowdown_max"] = auto.report.Latency().Seconds() / bestFixed
	out.counters["paper.latency_err_pct"] = 100 * math.Max(
		relErr(serverless.report.Latency().Seconds(), paperServerlessLatency),
		relErr(vmRun.report.Latency().Seconds(), paperVMLatency))
	out.counters["paper.cost_err_pct"] = 100 * math.Max(
		relErr(serverless.usd(), paperServerlessCost),
		relErr(vmRun.usd(), paperVMCost))
	out.counters["paper.auto_regret_pct"] = 100 * (auto.report.Latency().Seconds()/bestFixed - 1)
	out.counters["paper.sweep_best_workers"] = float64(best.workers)
	out.counters["shuffle.predict_err_pct"] = predictErr
	if sr, ok := serverless.report.Stage("sort"); ok {
		out.counters["core.stage.sort.virtual_s"] = sr.Duration().Seconds()
	}
	if sr, ok := serverless.report.Stage("encode"); ok {
		out.counters["core.stage.encode.virtual_s"] = sr.Duration().Seconds()
	}
	if auto.decision != nil {
		out.counters["autoplan.candidates"] = float64(len(auto.decision.Candidates))
		out.counters["autoplan.residual_pct"] = 100 * relErr(
			auto.decision.Chosen.Time.Seconds(), stageSeconds(auto, "sort"))
	}
	out.verify = func(bool) []string { return w.golden(out) }
	return out, nil
}

// golden pins seed 0 to the numbers the repo prints today.
func (w *paperSweep) golden(out *outcome) []string {
	if w.seed != 0 || w.dataBytes != paperDataBytes {
		return nil
	}
	var bad []string
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.005 {
			bad = append(bad, fmt.Sprintf("golden %s = %.4f, want %.2f", name, got, want))
		}
	}
	check("Table 1 serverless latency", out.sim["virtual_s"], goldenServerlessLatency)
	check("Table 1 VM latency", out.sim["tail_virtual_s"], goldenVMLatency)
	check("sweep minimum", out.sim["fast_virtual_s"], goldenSweepBest)
	check("sweep minimum workers", out.counters["paper.sweep_best_workers"], goldenSweepBestWorkers)
	return bad
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func stageSeconds(r *pipelineResult, stage string) float64 {
	if sr, ok := r.report.Stage(stage); ok {
		return sr.Duration().Seconds()
	}
	return 0
}
