package core

import (
	"fmt"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// Listener observes a workflow run (the progress tracker implements
// it).
type Listener interface {
	// StageStarted fires when a stage begins executing.
	StageStarted(workflow, stage string, at time.Duration)
	// StageFinished fires with the stage's metered report.
	StageFinished(workflow string, rep StageReport)
	// RunFinished fires once with the complete run report.
	RunFinished(rep *RunReport)
}

// StageReport is the metered outcome of one stage.
type StageReport struct {
	Name  string
	Start time.Duration
	End   time.Duration
	Err   error
	Faas  faas.Meter
	Store objectstore.Metrics
	Cost  billing.StageCost
	// StageOutcome is what the stage recorded on its StageContext.
	StageOutcome
}

// StageOutcome is the typed record a stage leaves of what it did beyond
// its metered usage; the zero value is a stage with nothing to add.
type StageOutcome struct {
	// Detail is the stage's human-readable summary — for sort stages
	// the exchange trace, including the auto-planner's chosen strategy.
	Detail string
	// Restarts / ReworkBytes / FallbackSlabs are the stage's failure
	// recovery: re-executed legs after a VM preemption, input re-read
	// to regenerate lost cache slabs, and slabs rerouted through object
	// storage.
	Restarts      int
	ReworkBytes   int64
	FallbackSlabs int
}

// Duration is the stage's wall-clock (virtual) time.
func (r StageReport) Duration() time.Duration { return r.End - r.Start }

// RunReport is the outcome of a workflow run.
type RunReport struct {
	Workflow string
	Start    time.Duration
	End      time.Duration
	Stages   []StageReport
	// StandingUSD is the session-owned standing-resource spend (warm
	// cache cluster, running VM) attributed to this run by the session
	// runtime: spin-up and idle accrual since the previous submission
	// plus accrual while this run executed. Zero outside a session or
	// when the session owns nothing. MeteredUSD excludes it; TotalUSD
	// is the sum.
	StandingUSD float64
}

// MeteredUSD is the run's metered spend: every stage's components added
// one at a time in report order, the same additions as Cost().Total()
// (a subtotal per stage or per component would round differently).
func (r *RunReport) MeteredUSD() float64 {
	var t float64
	for i := range r.Stages {
		t = r.Stages[i].Cost.AddTo(t)
	}
	return t
}

// Cost renders the run's itemized bill, four "<stage>: <component>"
// lines per stage in report order, for the places that print it; it is
// built on each call, and code that needs the amount calls MeteredUSD.
func (r *RunReport) Cost() billing.Report {
	rep := billing.Report{Lines: make([]billing.Line, 0, 4*len(r.Stages))}
	for _, s := range r.Stages {
		s.Cost.AppendTo(&rep, s.Name+": ")
	}
	return rep
}

// Latency is the end-to-end run time.
func (r *RunReport) Latency() time.Duration { return r.End - r.Start }

// TotalUSD is the run's full attributed spend: metered stage costs
// plus the session standing-resource share.
func (r *RunReport) TotalUSD() float64 { return r.MeteredUSD() + r.StandingUSD }

// Restarts sums the stages' failure-recovery re-executions.
func (r *RunReport) Restarts() int {
	var n int
	for _, s := range r.Stages {
		n += s.Restarts
	}
	return n
}

// ReworkBytes sums the stages' failure-driven re-processed volume.
func (r *RunReport) ReworkBytes() int64 {
	var n int64
	for _, s := range r.Stages {
		n += s.ReworkBytes
	}
	return n
}

// Stage returns the report for the named stage.
func (r *RunReport) Stage(name string) (StageReport, bool) {
	for _, s := range r.Stages {
		if s.Name == name {
			return s, true
		}
	}
	return StageReport{}, false
}

// Executor binds a workflow run to the simulated cloud.
type Executor struct {
	Sim         *des.Sim
	Store       *objectstore.Service
	Platform    *faas.Platform
	Provisioner *vm.Provisioner
	Shuffle     *shuffle.Operator
	Prices      billing.PriceBook

	// CacheProv and CacheShuffle are optional: set them when a stage
	// uses the cache data-exchange strategy.
	CacheProv    *memcache.Provisioner
	CacheShuffle *shuffle.CacheOperator

	// StandingCache / StandingVM are session-owned standing resources.
	// Their accrual is excluded from per-stage VM/cache cost deltas —
	// the session attributes it via RunReport.StandingUSD instead of
	// billing whichever stage happened to be running.
	StandingCache *memcache.Cluster
	StandingVM    *vm.Instance

	listeners []Listener

	// stageStarts / stagesActive track stage concurrency, so a usage
	// window can tell whether another stage's activity fell inside it.
	// Only touched from simulation process context.
	stageStarts  int64
	stagesActive int
}

// NewExecutor wires an executor; shuffleOp may be nil if no stage
// needs the object-storage exchange.
func NewExecutor(sim *des.Sim, store *objectstore.Service, platform *faas.Platform,
	prov *vm.Provisioner, shuffleOp *shuffle.Operator, prices billing.PriceBook) *Executor {
	return &Executor{
		Sim:         sim,
		Store:       store,
		Platform:    platform,
		Provisioner: prov,
		Shuffle:     shuffleOp,
		Prices:      prices,
	}
}

// AddListener subscribes a run observer.
func (e *Executor) AddListener(l Listener) {
	if l != nil {
		e.listeners = append(e.listeners, l)
	}
}

// usageWindow is the one way usage is attributed to a span of a run:
// the executor-global meters read when the window opens, subtracted
// from what they read when it closes. Both stage reports and the auto
// exchange's calibration use it. The meters are global, so a window is
// only the opener's own usage when nothing else ran inside it; close
// says whether that held. A plain value: opening and closing a window
// allocates nothing.
type usageWindow struct {
	faas      faas.Meter
	store     objectstore.Metrics
	vm, cache float64
	starts    int64
	active    int
}

// openWindow reads the meters. It is called from inside a stage, after
// the executor has counted that stage as started and active.
func (e *Executor) openWindow() usageWindow {
	return usageWindow{
		faas:   e.Platform.Meter(),
		store:  e.Store.Metrics(),
		vm:     e.vmCost(),
		cache:  e.cacheCost(),
		starts: e.stageStarts,
		active: e.stagesActive,
	}
}

// close returns what was used since the window opened, priced, and
// whether the opening stage was alone throughout: no other stage
// active at the open, none started since.
func (w usageWindow) close(e *Executor) (faas.Meter, objectstore.Metrics, billing.StageCost, bool) {
	fm := e.Platform.Meter().Sub(w.faas)
	sm := e.Store.Metrics().Sub(w.store)
	cost := billing.StageCost{
		Functions: e.Prices.FunctionsCost(fm),
		Storage:   e.Prices.StorageCost(sm),
		VM:        e.vmCost() - w.vm,
		Cache:     e.cacheCost() - w.cache,
	}
	return fm, sm, cost, e.stageStarts == w.starts && w.active <= 1
}

// vmCost totals the accumulated cost of all instances except the
// session-standing one, whose accrual the session attributes.
func (e *Executor) vmCost() float64 {
	if e.Provisioner == nil {
		return 0
	}
	total := e.Prices.VMCost(e.Provisioner.Instances())
	if e.StandingVM != nil {
		total -= e.Prices.VMCost([]*vm.Instance{e.StandingVM})
	}
	return total
}

// cacheCost totals the accumulated cost of all cache clusters except
// the session-standing one.
func (e *Executor) cacheCost() float64 {
	if e.CacheProv == nil {
		return 0
	}
	total := e.Prices.CacheCost(e.CacheProv.Clusters())
	if e.StandingCache != nil {
		total -= e.Prices.CacheCost([]*memcache.Cluster{e.StandingCache})
	}
	return total
}

// Run executes the workflow, blocking p until every stage completes
// (stages with satisfied dependencies run concurrently). The returned
// report is complete even on error; the first stage error aborts
// not-yet-started stages and is returned.
func (e *Executor) Run(p *des.Proc, w *Workflow) (*RunReport, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	rep := &RunReport{Workflow: w.Name(), Start: p.Now(), Stages: make([]StageReport, 0, len(w.nodes))}
	state := &RunState{}

	// done[i] opens when the stage at position i has finished; the
	// last one when all have.
	done := make([]des.WaitGroup, len(w.nodes)+1)
	all := &done[len(w.nodes)]
	for i := range w.nodes {
		done[i].Add(1)
	}
	var firstErr error
	for i, n := range w.nodes {
		all.Add(1)
		e.Sim.Spawn("stage/"+n.stage.Name(), func(sp *des.Proc) {
			defer all.Done()
			defer done[i].Done()
			for _, d := range n.deps {
				done[w.position(d)].Wait(sp)
			}
			if firstErr != nil {
				return // abort chain: upstream failed
			}
			start := sp.Now()
			e.stageStarts++
			e.stagesActive++
			win := e.openWindow()
			for _, l := range e.listeners {
				l.StageStarted(w.Name(), n.stage.Name(), start)
			}
			ctx := &StageContext{Proc: sp, Exec: e, State: state}
			err := n.stage.Run(ctx)
			e.stagesActive--
			sr := StageReport{Name: n.stage.Name(), Start: start, End: sp.Now(), Err: err}
			sr.Faas, sr.Store, sr.Cost, _ = win.close(e)
			if ctx.Outcome != nil {
				sr.StageOutcome = *ctx.Outcome
			}
			rep.Stages = append(rep.Stages, sr)
			for _, l := range e.listeners {
				l.StageFinished(w.Name(), sr)
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("core: stage %q: %w", n.stage.Name(), err)
			}
		})
	}
	all.Wait(p)
	rep.End = p.Now()
	for _, l := range e.listeners {
		l.RunFinished(rep)
	}
	return rep, firstErr
}
