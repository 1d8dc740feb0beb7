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

	// CacheProv is optional: set it, and build Shuffle with it, when a
	// stage uses the cache data-exchange strategy.
	CacheProv *memcache.Provisioner

	// StandingCache / StandingVM are session-owned standing resources,
	// provisioned outside any stage: the session attributes them via
	// RunReport.StandingUSD.
	StandingCache *memcache.Cluster
	StandingVM    *vm.Instance

	listeners []Listener

	// The stored-volume share clock. A stage is charged the shares'
	// advance over its lifetime; each open and close of a stage folds the
	// store's ByteSeconds growth since the last fold into them, split
	// evenly among the stages open. They rest at 0 with none open.
	open           int
	shares, folded float64
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

// fold brings the share clock up to now and returns it.
func (e *Executor) fold() float64 {
	bs := e.Store.Metrics().ByteSeconds
	if e.open > 0 {
		e.shares += (bs - e.folded) / float64(e.open)
	}
	e.folded = bs
	return e.shares
}

// usage is what scope sc has been charged so far, priced: its
// invocations and requests, the share clock's advance since sharesAt, and
// the instances and clusters it provisioned. A scope that has ended is
// read once.
func (e *Executor) usage(sc *des.Scope, sharesAt float64) (faas.Meter, objectstore.Metrics, billing.StageCost) {
	fm, sm := e.Platform.Ledger().Scope(sc), e.Store.Ledger().Scope(sc)
	sm.ByteSeconds = e.fold() - sharesAt
	cost := billing.StageCost{Functions: e.Prices.FunctionsCost(fm), Storage: e.Prices.StorageCost(sm)}
	if e.Provisioner != nil {
		cost.VM = e.Prices.VMCost(e.Provisioner.Ledger().Scope(sc))
	}
	if e.CacheProv != nil {
		cost.Cache = e.Prices.CacheCost(e.CacheProv.Ledger().Scope(sc))
	}
	return fm, sm, cost
}

// run is one Run's state in one allocation: the report its caller keeps,
// the backing of a one-stage report's Stages, the stages' blackboard and
// the first stage's context. It holds neither the workflow nor the wait
// state, so a kept report pins neither, and no error: the report lists
// the stages in the order they finished, so the first failure is the
// first report with an Err. Run clears the context and the blackboard
// once it is done with them, so a kept report pins neither.
type run struct {
	rep   RunReport
	one   [1]StageReport
	state RunState
	ctx   StageContext
}

// failed returns the report of the first stage to fail, or nil.
func (r *run) failed() *StageReport {
	for i := range r.rep.Stages {
		if r.rep.Stages[i].Err != nil {
			return &r.rep.Stages[i]
		}
	}
	return nil
}

// Run executes the workflow, blocking p until every stage completes
// (stages with satisfied dependencies run concurrently). The first stage
// with no dependencies runs on p itself, with the context the run holds;
// each other stage runs on a process of its own with a context of its
// own, and only then is there anything to wait for: of a one-stage run,
// this package allocates only the run. The returned report is complete
// even on error; the first stage error aborts not-yet-started stages and
// is returned.
func (e *Executor) Run(p *des.Proc, w *Workflow) (*RunReport, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	r := &run{rep: RunReport{Workflow: w.Name(), Start: p.Now()}}
	r.rep.Stages = r.one[:0]
	r.ctx = StageContext{Proc: p, Exec: e, State: &r.state}
	first := 0
	for len(w.nodes[first].deps) > 0 {
		first++
	}

	var done []des.WaitGroup
	if len(w.nodes) > 1 {
		r.rep.Stages = make([]StageReport, 0, len(w.nodes))
		done = e.spawn(r, w, first)
	}
	e.stage(r, &r.ctx, w.nodes[first].stage)
	r.ctx = StageContext{}
	if done != nil {
		done[first].Done()
		done[len(w.nodes)].Wait(p)
	}
	r.state = RunState{}
	r.rep.End = p.Now()
	for _, l := range e.listeners {
		l.RunFinished(&r.rep)
	}
	if s := r.failed(); s != nil {
		return &r.rep, fmt.Errorf("core: stage %q: %w", s.Name, s.Err)
	}
	return &r.rep, nil
}

// spawn starts every stage of w but the one at position first on a
// process of its own, where it waits for its dependencies, and returns
// the wait state: done[i] opens when the stage at position i has
// finished, the last one when all but the first have.
func (e *Executor) spawn(r *run, w *Workflow, first int) []des.WaitGroup {
	done := make([]des.WaitGroup, len(w.nodes)+1)
	all := &done[len(w.nodes)]
	for i := range w.nodes {
		done[i].Add(1)
	}
	for i := range w.nodes {
		if i == first {
			continue
		}
		n := &w.nodes[i]
		all.Add(1)
		e.Sim.Spawn("stage/"+n.stage.Name(), func(sp *des.Proc) {
			defer all.Done()
			defer done[i].Done()
			for _, d := range n.deps {
				done[w.position(d)].Wait(sp)
			}
			if r.failed() == nil { // else abort the chain: a stage failed
				e.stage(r, &StageContext{Proc: sp, Exec: e, State: &r.state}, n.stage)
			}
		})
	}
	return done
}

// stage runs st with ctx in a scope of its own on ctx.Proc and adds its
// report to r.
func (e *Executor) stage(r *run, ctx *StageContext, st Stage) {
	p := ctx.Proc
	start := p.Now()
	sc := p.LeadScope()
	sharesAt := e.fold()
	e.open++
	for _, l := range e.listeners {
		l.StageStarted(r.rep.Workflow, st.Name(), start)
	}
	err := st.Run(ctx)
	sr := StageReport{Name: st.Name(), Start: start, End: p.Now(), Err: err}
	p.EndScope()
	sr.Faas, sr.Store, sr.Cost = e.usage(sc, sharesAt)
	if e.open--; e.open == 0 {
		e.shares = 0
	}
	if ctx.Outcome != nil {
		sr.StageOutcome = *ctx.Outcome
	}
	r.rep.Stages = append(r.rep.Stages, sr)
	for _, l := range e.listeners {
		l.StageFinished(r.rep.Workflow, sr)
	}
}
