package core

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/autoplan"
)

// decisionFixture is a committed planner decision for Describe tests.
var decisionFixture = autoplan.Decision{
	Chosen: autoplan.Candidate{Strategy: autoplan.VMStaged, Instance: "bx2-8x32", Workers: 8},
}

func TestDescribeAutoSortStage(t *testing.T) {
	// An AutoExchange renders as "auto" before a run...
	w2 := NewWorkflow("wf2")
	auto := &AutoExchange{}
	if err := w2.Add(&SortStage{Strategy: auto, Params: SortParams{}}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if out := w2.Describe(); !strings.Contains(out, "sort [exchange: auto]") {
		t.Errorf("auto strategy not annotated:\n%s", out)
	}
	// ... and names the committed family once a decision exists.
	auto.LastDecision = &decisionFixture
	if out := w2.Describe(); !strings.Contains(out, "[exchange: auto → vm]") {
		t.Errorf("decision not rendered:\n%s", out)
	}
}
