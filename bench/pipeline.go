package main

import (
	"fmt"
	"math"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
)

// exchange names the data-exchange configuration of one pipeline run.
type exchange int

const (
	objectStorage exchange = iota
	vmStaged
	vmStagedSpot
	cacheCold
	cacheWarm
	autoPlanned
)

func (x exchange) String() string {
	return [...]string{"object-storage", "vm", "vm-spot", "cache-cold", "cache-warm", "auto"}[x]
}

// pipelineSpec is one METHCOMP pipeline (sort -> encode) execution.
type pipelineSpec struct {
	label    string
	profile  calib.Profile
	exchange exchange
	workers  int
	// maxRetries are invocation-level retries of the sort's functions
	// (the chaos matrix sets 4 so brownout residue is absorbed).
	maxRetries int
	input      payload.Payload
	plan       *chaos.Plan
}

// meters is a snapshot of every global meter a rig exposes.
type meters struct {
	events int64
	store  objectstore.Metrics
	faas   faas.Meter
	cache  memcache.Metrics
	vmUSD  float64
	cchUSD float64
}

func readMeters(rig *calib.Rig) meters {
	m := meters{
		events: rig.Sim.Fired(),
		store:  rig.Store.Metrics(),
		faas:   rig.Platform.Meter(),
		vmUSD:  rig.Profile.Prices.VMCost(rig.Prov.Instances()),
		cchUSD: rig.Profile.Prices.CacheCost(rig.CacheProv.Clusters()),
	}
	for _, c := range rig.CacheProv.Clusters() {
		cm := c.Metrics()
		m.cache.SetOps += cm.SetOps
		m.cache.GetOps += cm.GetOps
		m.cache.Hits += cm.Hits
		m.cache.Misses += cm.Misses
		m.cache.BytesIn += cm.BytesIn
		m.cache.BytesOut += cm.BytesOut
	}
	return m
}

// pipelineResult is what one pipeline run leaves behind.
type pipelineResult struct {
	spec       pipelineSpec
	report     *core.RunReport
	runErr     error
	sessionUSD float64
	// meteredUSD prices the global meters' movement between the end of
	// input staging and the end of the run with the profile's
	// PriceBook: the independent route to the same bill.
	meteredUSD float64
	counters   counters
	fired      []chaos.Fired
	decision   *autoplan.Decision
	sess       *session.Session
}

func (r *pipelineResult) ok() bool { return r.runErr == nil && r.report != nil }

// usd is the run's full attributed spend.
func (r *pipelineResult) usd() float64 {
	if r.report == nil {
		return 0
	}
	return r.report.TotalUSD()
}

// billAgrees cross-checks the three routes to the run's bill.
func (r *pipelineResult) billAgrees() error {
	if !closeTo(r.usd(), r.sessionUSD) {
		return fmt.Errorf("%s: run bill $%.9f != session bill $%.9f", r.spec.label, r.usd(), r.sessionUSD)
	}
	if !closeTo(r.usd(), r.meteredUSD) {
		return fmt.Errorf("%s: run bill $%.9f != meters x PriceBook $%.9f", r.spec.label, r.usd(), r.meteredUSD)
	}
	return nil
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// runEnd is a core.Listener that calls itself when the run finishes.
type runEnd func()

func (runEnd) StageStarted(string, string, time.Duration) {}
func (runEnd) StageFinished(string, core.StageReport)     {}
func (f runEnd) RunFinished(*core.RunReport)              { f() }

// runPipeline opens a session, stages the input, runs the pipeline and
// closes the session. The session (and so the store holding the
// outputs) stays reachable through the result for verification.
func runPipeline(spec pipelineSpec, l core.Listener) (*pipelineResult, error) {
	res := &pipelineResult{spec: spec}
	// The closing meter snapshot is taken at the instant the run ends,
	// inside the simulation: trailing events (a soak's later faults,
	// keep-alive expiries) still advance the clock afterwards and the
	// stored volume keeps accruing byte-seconds that belong to no run.
	var staged, after meters
	atEnd := runEnd(func() { after = readMeters(res.sess.Rig()) })
	sess, err := session.Open(spec.profile, session.Options{Chaos: spec.plan, Listeners: []core.Listener{l, atEnd}})
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", spec.label, err)
	}
	res.sess = sess
	rig := sess.Rig()
	var auto *core.AutoExchange
	job := session.Job{
		Name: spec.label,
		Build: func(rig *calib.Rig) (*core.Workflow, error) {
			var strategy core.ExchangeStrategy
			switch spec.exchange {
			case objectStorage:
				strategy = core.ObjectStorageExchange{}
			case vmStaged, vmStagedSpot:
				ve := rig.VMStrategy()
				ve.Spot = spec.exchange == vmStagedSpot
				strategy = ve
			case cacheCold:
				strategy = rig.CacheStrategy(false)
			case cacheWarm:
				strategy = rig.CacheStrategy(true)
			case autoPlanned:
				auto = rig.AutoStrategy(autoplan.Objective{})
				strategy = auto
			}
			sortParams := rig.SortParams("data", "sample.bed", "work", "sorted/", spec.workers)
			sortParams.MaxRetries = spec.maxRetries
			if spec.exchange == autoPlanned {
				sortParams.Workers = 0 // the planner sweeps worker counts itself
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
			if err := c.Put(p, "data", "sample.bed", spec.input); err != nil {
				return err
			}
			staged = readMeters(rig)
			return nil
		},
	}
	rep, runErr := sess.Submit(job)
	if rep == nil && runErr != nil {
		return nil, fmt.Errorf("%s: %w", spec.label, runErr)
	}
	res.report, res.runErr = rep, runErr
	after.events = rig.Sim.Fired() // the drain's trailing events cost host time too
	res.counters = pipelineCounters(rig, staged, after)
	prices := rig.Profile.Prices
	res.meteredUSD = prices.FunctionsCost(after.faas.Sub(staged.faas)) +
		prices.StorageCost(after.store.Sub(staged.store)) +
		(after.vmUSD - staged.vmUSD) + (after.cchUSD - staged.cchUSD)
	report, err := sess.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", spec.label, err)
	}
	res.sessionUSD = report.TotalUSD
	if armed := sess.Chaos(); armed != nil {
		res.fired = armed.Fired()
	}
	if auto != nil {
		res.decision = auto.LastDecision
	}
	return res, nil
}

// runUnit runs one pipeline as a unit of a rep: its span, a cut of the
// host clock, the operation count, its counters, and the two checks
// every pipeline run gets (it completed; its bill agrees three ways).
func runUnit(spec pipelineSpec, tr *tracer, clk *hostClock, out *outcome) (*pipelineResult, error) {
	sp := tr.begin(spec.label, kindUnit)
	res, err := runPipeline(spec, tr.listener(sp, clk))
	tr.end(sp)
	clk.tick()
	out.attempted++
	if err != nil {
		return nil, err
	}
	tr.annotate(sp, res.report.Latency(), res.counters)
	out.counters.add(res.counters)
	if !res.ok() {
		out.fail("%s did not complete: %v", spec.label, res.runErr)
	} else if err := res.billAgrees(); err != nil {
		out.fail("%v", err)
	}
	return res, nil
}

// pipelineCounters turns a meter window into per-layer counters. The
// event count is the whole simulation's (staging included): it is the
// denominator of des.ns_per_event, which divides the whole run's host
// time.
func pipelineCounters(rig *calib.Rig, from, to meters) counters {
	c := counters{}
	c["des.events"] = float64(to.events)
	st := to.store.Sub(from.store)
	c["objectstore.class_a_ops"] = float64(st.ClassAOps)
	c["objectstore.class_b_ops"] = float64(st.ClassBOps)
	c["objectstore.bytes_in_mb"] = float64(st.BytesIn) / 1e6
	c["objectstore.bytes_out_mb"] = float64(st.BytesOut) / 1e6
	c["objectstore.throttled"] = float64(st.Throttled)
	fm := to.faas.Sub(from.faas)
	c["faas.invocations"] = float64(fm.Invocations)
	c["faas.cold_starts"] = float64(fm.ColdStarts)
	c["faas.warm_starts"] = float64(fm.WarmStarts)
	c["faas.retries"] = float64(fm.Retries)
	c["faas.failed_attempts"] = float64(fm.FailedAttempts)
	c["faas.gb_seconds"] = fm.GBSeconds
	c["faas.exec_virtual_s"] = fm.ExecTime.Seconds()
	cm := to.cache.Sub(from.cache)
	c["memcache.set_ops"] = float64(cm.SetOps)
	c["memcache.get_ops"] = float64(cm.GetOps)
	c["memcache.hits"] = float64(cm.Hits)
	c["memcache.bytes_in_mb"] = float64(cm.BytesIn) / 1e6
	for _, inst := range rig.Prov.Instances() {
		c["vm.instances"]++
		c["vm.billed_virtual_s"] += inst.BilledDuration().Seconds()
		if inst.Preempted() {
			c["vm.preemptions"]++
		}
	}
	return c
}

// counters are named per-layer counts; add sums another set in.
type counters map[string]float64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}
