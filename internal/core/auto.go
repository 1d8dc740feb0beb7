package core

import (
	"errors"
	"fmt"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// AutoExchange is the planner-backed strategy — the paper's "seer":
// it stats the input, asks internal/autoplan for the best (strategy,
// configuration) pair under its objective, and dispatches the sort to
// the winning concrete strategy. The full decision table is kept on
// LastDecision for reporting.
type AutoExchange struct {
	// Objective is what to optimize (zero value: minimum time).
	Objective autoplan.Objective
	// Env is the priced cloud the planner predicts against, failure
	// priors and calibration history included: calib.PlanEnv of the
	// profile the executor's services were built from. RunSort overlays
	// only what is live when the stage runs: a standing cluster or
	// instance that is still up, and the stage's memory grant. A VM leg
	// runs as Env.VM, the leg it was priced as, on the chosen instance.
	Env autoplan.Env
	// LastDecision is the most recent planner output (for reports; the
	// simulation kernel runs one process at a time, so reads after the
	// stage are safe).
	LastDecision *autoplan.Decision
}

var _ ExchangeStrategy = (*AutoExchange)(nil)

// Name implements ExchangeStrategy.
func (*AutoExchange) Name() string { return "auto" }

// RunSort implements ExchangeStrategy.
func (a *AutoExchange) RunSort(ctx *StageContext, spec shuffle.Spec) (SortOutcome, error) {
	if ctx.Exec.Shuffle == nil {
		return SortOutcome{}, errors.New("core: executor has no shuffle operator")
	}
	if spec.Exchange != shuffle.ViaStore || spec.Groups != 0 {
		return SortOutcome{}, errors.New("core: the auto strategy plans the exchange; the spec may not name one")
	}
	client := objectstore.NewClient(ctx.Exec.Store)
	head, err := client.Head(ctx.Proc, spec.InputBucket, spec.InputKey)
	if err != nil {
		return SortOutcome{}, fmt.Errorf("auto exchange: stat input: %w", err)
	}

	in := spec.PlanInput(head.Size)
	if in.Startup <= 0 {
		in.Startup = ctx.Exec.Platform.Config().ColdStart
	}
	wl := autoplan.Workload{PlanInput: in, Workers: spec.Workers}
	env := a.Env
	if spec.MemoryMB > 0 {
		env.Faas.MemoryMB = spec.MemoryMB
	}
	if c := ctx.Exec.StandingCache; c != nil && !c.Stopped() {
		env.CacheStandingNodes = c.Nodes()
	}
	if inst := ctx.Exec.StandingVM; inst != nil && !inst.Stopped() {
		env.VMStandingType = inst.Type().Name
	}

	dec, err := autoplan.Plan(wl, env, a.Objective)
	if err != nil {
		return SortOutcome{}, fmt.Errorf("auto exchange: %w", err)
	}
	a.LastDecision = &dec

	// Meter the dispatched run, from what the stage was charged before and
	// after it, so the measured outcome can calibrate the next plan.
	startAt, scope := ctx.Proc.Now(), ctx.Proc.Scope()
	_, _, before := ctx.Exec.usage(scope, 0)

	outcome, err := a.dispatch(ctx, spec, &dec)
	if err != nil {
		return outcome, err
	}

	if hist := env.History; hist != nil {
		_, _, after := ctx.Exec.usage(scope, 0)
		hist.Record(autoplan.Observation{
			Strategy:      dec.Chosen.Strategy,
			PredictedTime: dec.Chosen.ModelTime,
			ActualTime:    ctx.Proc.Now() - startAt,
			PredictedUSD:  dec.Chosen.ModelUSD,
			ActualUSD:     after.Total() - before.Total(),
		})
	}
	outcome.Detail = dec.Summary() + "; " + outcome.Detail
	return outcome, nil
}

// dispatch hands the job to the chosen family's concrete strategy with
// the planned configuration filled in.
func (a *AutoExchange) dispatch(ctx *StageContext, spec shuffle.Spec, dec *autoplan.Decision) (SortOutcome, error) {
	c := dec.Chosen
	q := spec
	q.Workers = c.Workers
	if dec.Speculation.Arm {
		// The planner's failure-exposure model says backup invocations
		// pay for themselves: arm wave-level speculation on function
		// families (the VM family has no waves to speculate).
		q.Speculate = true
	}
	switch c.Strategy {
	case autoplan.Hierarchical:
		q.Exchange, q.Groups = shuffle.ViaStoreTwoLevel, c.Groups
		fallthrough
	case autoplan.ObjectStorage:
		return ObjectStorageExchange{}.RunSort(ctx, q)
	case autoplan.CacheBacked:
		return (&CacheExchange{Nodes: c.CacheNodes}).RunSort(ctx, q)
	case autoplan.VMStaged:
		ve := VMExchange{Leg: a.Env.VM, Spot: c.Spot}
		ve.InstanceType = c.Instance
		q.Speculate = false // single VM: nothing to speculate
		return ve.RunSort(ctx, q)
	default:
		return SortOutcome{}, fmt.Errorf("auto exchange: unknown strategy %v", c.Strategy)
	}
}
