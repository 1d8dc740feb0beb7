package core

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// planEnvOf prices the test rig's services for the planner, the way
// calib.PlanEnv does for a profile (calib imports this package, so the
// tests here cannot use it).
func planEnvOf(exec *Executor) autoplan.Env {
	return autoplan.Env{
		Store:   shuffle.ProfileOf(exec.Store.Config()),
		Faas:    exec.Platform.Config(),
		Prices:  exec.Prices,
		VMTypes: exec.Provisioner.Types(),
	}
}

// TestAutoExchangeCapturesDecision: the AutoExchange strategy keeps its
// full candidate table, the chosen candidate is feasible, a pinned
// worker count collapses the sweep, and the stage report's detail
// carries the planner's summary.
func TestAutoExchangeCapturesDecision(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 1500, Seed: 93, Sorted: false})
	params := stageData(t, r, recs)
	params.Workers = 4

	auto := &AutoExchange{Env: planEnvOf(r.exec)}
	w := NewWorkflow("capture")
	if err := w.Add(&SortStage{Strategy: auto, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	dec := auto.LastDecision
	if dec == nil {
		t.Fatal("no decision captured")
	}
	if !dec.Chosen.Feasible {
		t.Errorf("chosen candidate infeasible: %+v", dec.Chosen)
	}
	for _, c := range dec.Candidates {
		if c.Strategy != autoplan.VMStaged && c.Workers != 4 {
			t.Errorf("%v candidate at w=%d, want pinned 4", c.Strategy, c.Workers)
		}
	}
	if sr, _ := rep.Stage("sort"); !strings.Contains(sr.Detail, "auto-planned") {
		t.Errorf("stage detail %q does not carry the planner summary", sr.Detail)
	}
}

// TestSortStageWithoutStrategyFails: a sort stage has no default
// exchange; leaving Strategy nil is an error that names the stage.
func TestSortStageWithoutStrategyFails(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 94, Sorted: false})
	w := NewWorkflow("bare")
	if err := w.Add(&SortStage{Params: stageData(t, r, recs)}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := r.run(t, w); err == nil || !strings.Contains(err.Error(), `"sort" has no exchange strategy`) {
		t.Fatalf("err = %v", err)
	}
}
