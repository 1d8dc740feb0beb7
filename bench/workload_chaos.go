package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// zoneChaos is the failure-domain matrix of `faasbench -experiment
// zonechaos`: every exchange strategy crossed with {no fault, a
// whole-zone outage aimed into the sort window, a low and a high
// Poisson soak}, plus a same-seed replay of one soak cell. The fault
// plans are inputs: prepare derives them from the strategy's
// fault-free sort window and every rep arms the same plans.
//
// The benchmark seed moves the profile seed only (cold-start jitter,
// which requests a brownout fails). The soak schedules always come
// from chaos seed 7: which faults land in which phase is the shape of
// this workload, and ten other chaos seeds moved the matrix's summed
// makespan by 9% and its host time by 20%, far beyond any bound.
type zoneChaos struct {
	profile   calib.Profile
	dataBytes int64
	rows      []exchange
	plans     map[exchange][]*chaos.Plan // per row, one plan per faulted column
}

// The matrix columns after the fault-free baseline.
var chaosFaults = []string{"zone-outage", "soak-low", "soak-high"}

const chaosSeed = 7

func (w *zoneChaos) name() string { return "zone-chaos" }

func (w *zoneChaos) spec(x exchange, fault string, plan *chaos.Plan) pipelineSpec {
	return pipelineSpec{
		label:      fmt.Sprintf("cell/%s/%s", x, fault),
		profile:    w.profile,
		exchange:   x,
		workers:    paperWorkers,
		maxRetries: 4, // invocation retries absorb what the store client's backoff does not
		input:      payload.Sized(w.dataBytes),
		plan:       plan,
	}
}

func (w *zoneChaos) prepare(seed int64, short bool) error {
	w.profile = calib.Paper()
	w.profile.Seed = seedFor(seed, streamProfile, w.profile.Seed)
	w.profile.Zones = []string{"zone-a", "zone-b"}
	w.dataBytes = paperDataBytes
	w.rows = []exchange{objectStorage, vmStagedSpot, cacheCold, autoPlanned}
	if short {
		w.dataBytes = 350e6
		w.rows = []exchange{objectStorage, vmStagedSpot}
	}
	w.plans = make(map[exchange][]*chaos.Plan, len(w.rows))
	for _, x := range w.rows {
		base, err := runPipeline(w.spec(x, "none", nil), nil)
		if err != nil {
			return err
		}
		if !base.ok() {
			return fmt.Errorf("zone-chaos: fault-free %s run failed: %v", x, base.runErr)
		}
		sr, ok := base.report.Stage("sort")
		if !ok {
			return fmt.Errorf("zone-chaos: %s run has no sort stage", x)
		}
		for _, fault := range chaosFaults {
			plan, err := w.faultPlan(fault, x, sr.Start, sr.End)
			if err != nil {
				return fmt.Errorf("zone-chaos: %s/%s plan: %w", x, fault, err)
			}
			w.plans[x] = append(w.plans[x], plan)
		}
	}
	return nil
}

// faultPlan mirrors the experiment's schedules. The outage lands 40%
// into the strategy's working window, past its provisioning lead so
// the resources it targets exist; every brownout window stays under
// the store client's ~6.3 s retry ladder, so absorption is structural.
func (w *zoneChaos) faultPlan(fault string, x exchange, start, end time.Duration) (*chaos.Plan, error) {
	if fault == "zone-outage" {
		span := end - start
		var lead time.Duration
		switch x {
		case vmStagedSpot:
			lead = w.instanceBoot() + w.profile.VMSetup
		case cacheCold, autoPlanned:
			lead = w.profile.Cache.ProvisionTime
		}
		work := span - lead
		if work < 0 {
			lead, work = 0, span
		}
		return &chaos.Plan{Events: []chaos.Event{{
			At:       start + lead + work*40/100,
			Kind:     chaos.ZoneOutage,
			Zone:     w.profile.Zones[0],
			Rate:     0.4,
			Duration: 6 * time.Second,
		}}}, nil
	}
	pr := chaos.Process{
		Seed:             chaosSeed,
		Horizon:          end + end/2 + time.Minute,
		CacheNodes:       1,
		BrownoutRate:     0.5,
		BrownoutDuration: 5 * time.Second,
		Zones:            w.profile.Zones,
		OutageRate:       0.3,
		OutageDuration:   6 * time.Second,

		PreemptPerHour: 15, CacheKillPerHour: 12, BrownoutPerHour: 30, ZoneOutagePerHour: 4,
	}
	if fault == "soak-high" {
		pr.PreemptPerHour, pr.CacheKillPerHour, pr.BrownoutPerHour, pr.ZoneOutagePerHour = 45, 36, 90, 10
	}
	plan, err := pr.Generate()
	if err != nil {
		return nil, err
	}
	return thin(plan), nil
}

// retryLadder is how long the store client keeps retrying one request
// (six doublings from 100 ms), with a little slack.
const retryLadder = 6400 * time.Millisecond

// thin drops the soak arrivals that would turn degradation into
// failure, so that every cell completes by construction and not by the
// luck of one seed's draws. A window that fails store requests
// (brownout or zone outage) opens only once the previous one has been
// closed for a full retry ladder: a request's last attempt then always
// lands in clear air, and the two zones are never down together. And a
// PreemptVM is kept only while the spot instance can still be the
// victim: once any event may have reclaimed it the sort is on its
// on-demand fallback, which a further preemption would kill for good.
// Soak schedules are sorted by fire time.
func thin(plan *chaos.Plan) *chaos.Plan {
	out := &chaos.Plan{}
	var (
		storeClear time.Duration
		reclaimed  bool
	)
	for _, ev := range plan.Events {
		switch ev.Kind {
		case chaos.StoreBrownout, chaos.ZoneOutage:
			if ev.At < storeClear {
				continue
			}
			storeClear = ev.At + ev.Duration + retryLadder
			reclaimed = reclaimed || ev.Kind == chaos.ZoneOutage
		case chaos.PreemptVM:
			if reclaimed {
				continue
			}
			reclaimed = true
		}
		out.Events = append(out.Events, ev)
	}
	return out
}

func (w *zoneChaos) instanceBoot() time.Duration {
	types := w.profile.VMTypes
	if len(types) == 0 {
		types = vm.Catalog()
	}
	for _, it := range types {
		if it.Name == w.profile.InstanceType {
			return it.BootTime
		}
	}
	return 0
}

// firedLog renders a fired-event list canonically; two runs of the same
// plan over the same workload must produce identical bytes.
func firedLog(fired []chaos.Fired) string {
	var b strings.Builder
	for _, f := range fired {
		fmt.Fprintf(&b, "%s @%s: %s\n", f.Event.Kind, f.Event.At, f.Outcome)
	}
	return b.String()
}

func (w *zoneChaos) rep(tr *tracer, clk *hostClock) (*outcome, error) {
	out := newOutcome()
	var (
		totalS, totalUSD, worst, slowdown float64
		fastest                           = math.Inf(1)
		completed                         int
		replayWant                        string
	)
	cell := func(spec pipelineSpec, base float64) (*pipelineResult, error) {
		res, err := runUnit(spec, tr, clk, out)
		if err != nil || !res.ok() {
			return res, err
		}
		completed++
		s := res.report.Latency().Seconds()
		totalS += s
		totalUSD += res.usd()
		worst = math.Max(worst, s)
		if base > 0 {
			slowdown = math.Max(slowdown, s/base)
		}
		out.counters["chaos.faults_fired"] += float64(len(res.fired))
		out.counters["chaos.restarts"] += float64(res.report.Restarts())
		out.counters["chaos.rework_mb"] += float64(res.report.ReworkBytes()) / 1e6
		for _, sr := range res.report.Stages {
			out.counters["chaos.fallback_slabs"] += float64(sr.FallbackSlabs)
		}
		return res, nil
	}
	for _, x := range w.rows {
		base, err := cell(w.spec(x, "none", nil), 0)
		if err != nil {
			return nil, err
		}
		baseS := base.report.Latency().Seconds()
		fastest = math.Min(fastest, baseS)
		slowdown = math.Max(slowdown, 1)
		for i, fault := range chaosFaults {
			res, err := cell(w.spec(x, fault, w.plans[x][i]), baseS)
			if err != nil {
				return nil, err
			}
			if x == w.rows[0] && fault == "soak-low" {
				replayWant = firedLog(res.fired)
			}
		}
	}
	// Replay: the same plan over the same workload must fire the same
	// log byte for byte. It is the 17th run, outside the 16-cell sums.
	replaySpec := w.spec(w.rows[0], "soak-low", w.plans[w.rows[0]][1])
	replaySpec.label = "replay/" + replaySpec.label
	replay, err := runUnit(replaySpec, tr, clk, out)
	if err != nil {
		return nil, err
	}
	if got := firedLog(replay.fired); got != replayWant {
		out.fail("same-seed soak replay differs:\n%s---\n%s", got, replayWant)
	}

	out.sim["virtual_s"] = totalS
	out.sim["usd"] = totalUSD
	out.sim["fast_virtual_s"] = fastest
	out.sim["tail_virtual_s"] = worst
	out.sim["slowdown_max"] = slowdown
	out.counters["chaos.cells_completed"] = float64(completed)
	return out, nil
}
