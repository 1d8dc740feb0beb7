package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
)

// buildWorkflow adds no-op stages from "name<-dep,dep" specs, in order.
func buildWorkflow(t *testing.T, specs ...string) *Workflow {
	t.Helper()
	w := NewWorkflow("wf")
	for _, spec := range specs {
		name, deps, _ := strings.Cut(spec, "<-")
		var depList []string
		if deps != "" {
			depList = strings.Split(deps, ",")
		}
		if err := w.Add(&FuncStage{StageName: name, Fn: func(*StageContext) error { return nil }}, depList...); err != nil {
			t.Fatalf("Add %s: %v", spec, err)
		}
	}
	return w
}

// TestWorkflowValidateTable pins what Validate and Add reject, with the
// error texts callers and logs have seen since the workflow kept a name
// index, and what they accept.
func TestWorkflowValidateTable(t *testing.T) {
	chain := []string{"s00"}
	for i := 1; i < 64; i++ {
		chain = append(chain, fmt.Sprintf("s%02d<-s%02d", i, i-1))
	}
	reversed := make([]string, len(chain))
	for i, s := range chain {
		reversed[len(chain)-1-i] = s
	}
	wide := []string{"root"}
	for i := 0; i < 70; i++ { // past the 64 marks Validate keeps on the stack
		wide = append(wide, fmt.Sprintf("leaf%02d<-root", i))
	}
	for _, tc := range []struct {
		name    string
		specs   []string
		wantErr string
	}{
		{"empty", nil, "core: empty workflow"},
		{"unknown dependency", []string{"a", "b<-ghost"}, `core: stage "b" depends on unknown "ghost"`},
		{"self-dependency", []string{"a", "b<-a,b"}, `core: stage "b" depends on itself`},
		{"2-cycle", []string{"a<-b", "b<-a"}, "core: workflow has a dependency cycle"},
		{"3-cycle", []string{"a<-c", "b<-a", "c<-b"}, "core: workflow has a dependency cycle"},
		{"cycle behind a sound prefix", []string{"in", "a<-in,c", "b<-a", "c<-b", "out<-in"}, "core: workflow has a dependency cycle"},
		{"single stage", []string{"a"}, ""},
		{"forward reference", []string{"encode<-sort", "sort"}, ""},
		{"diamond", []string{"a", "b<-a", "c<-a", "d<-b,c"}, ""},
		{"repeated dependency", []string{"a", "b<-a,a"}, ""},
		{"64-stage chain", chain, ""},
		{"64-stage chain, added last stage first", reversed, ""},
		{"71 stages", wide, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWorkflow(t, tc.specs...)
			for call := 1; call <= 2; call++ { // Validate leaves nothing behind
				err := w.Validate()
				if tc.wantErr == "" && err != nil {
					t.Fatalf("Validate #%d: %v", call, err)
				}
				if tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr) {
					t.Fatalf("Validate #%d = %v, want %q", call, err, tc.wantErr)
				}
			}
		})
	}

	w := buildWorkflow(t, "a")
	noop := func(name string) Stage {
		return &FuncStage{StageName: name, Fn: func(*StageContext) error { return nil }}
	}
	if err := w.Add(noop("a")); err == nil || err.Error() != `core: duplicate stage "a"` {
		t.Errorf("duplicate Add = %v", err)
	}
	if err := w.Add(nil); err == nil || err.Error() != "core: nil stage" {
		t.Errorf("nil Add = %v", err)
	}
	if err := w.Add(noop("")); err == nil || err.Error() != "core: stage with empty name" {
		t.Errorf("unnamed Add = %v", err)
	}
	if got := strings.Join(w.StageNames(), ","); got != "a" {
		t.Errorf("rejected Adds left stages behind: %s", got)
	}

	// A later Add changes the verdict both ways.
	if err := w.Add(noop("b"), "c"); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err == nil || err.Error() != `core: stage "b" depends on unknown "c"` {
		t.Fatalf("dangling forward reference = %v", err)
	}
	if err := w.Add(noop("c"), "a"); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("forward reference resolved by a later Add: %v", err)
	}
	if err := w.Add(noop("d"), "e"); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(noop("e"), "d"); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err == nil || err.Error() != "core: workflow has a dependency cycle" {
		t.Fatalf("cycle added after a clean Validate = %v", err)
	}
}

// TestForwardReferenceRunsInDependencyOrder: a workflow whose stages
// were added dependents-first runs them dependencies-first, and its
// report lists them in completion order.
func TestForwardReferenceRunsInDependencyOrder(t *testing.T) {
	r := newRig(t)
	var order []string
	w := NewWorkflow("fwd")
	add := func(name string, deps ...string) {
		if err := w.Add(&FuncStage{StageName: name, Fn: func(ctx *StageContext) error {
			ctx.Proc.Sleep(time.Second)
			order = append(order, name)
			return nil
		}}, deps...); err != nil {
			t.Fatal(err)
		}
	}
	add("join", "left", "right")
	add("left", "src")
	add("right", "src")
	add("src")
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := strings.Join(order, ","); got != "src,left,right,join" {
		t.Fatalf("execution order %s, want src,left,right,join", got)
	}
	var reported []string
	for _, s := range rep.Stages {
		reported = append(reported, s.Name)
	}
	if got := strings.Join(reported, ","); got != "src,left,right,join" {
		t.Fatalf("report order %s", got)
	}
	if rep.Latency() != 3*time.Second {
		t.Fatalf("latency %v, want 3s (left and right overlap)", rep.Latency())
	}
}

// TestValidateAllocatesNothing: the gateway validates one workflow per
// job.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, specs := range [][]string{{"work"}, {"a", "b<-a", "c<-a", "d<-b,c"}} {
		w := buildWorkflow(t, specs...)
		if n := testing.AllocsPerRun(100, func() {
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Validate of %d stage(s) allocates %v times, want 0", len(specs), n)
		}
	}
}

// TestRunCostOrder: MeteredUSD, the rendered bill's Total and the
// retired construction (four Report.Add per stage, then one line per
// stage line merged under "<stage>: " and summed) are the same float,
// bit for bit, whatever the stage costs are. A per-stage or
// per-component subtotal would not be.
func TestRunCostOrder(t *testing.T) {
	retired := func(rep *RunReport) float64 {
		var run billing.Report
		for _, s := range rep.Stages {
			var stage billing.Report
			stage.Add("functions", s.Cost.Functions)
			stage.Add("storage requests", s.Cost.Storage)
			stage.Add("vm", s.Cost.VM)
			stage.Add("cache", s.Cost.Cache)
			for _, l := range stage.Lines {
				run.Add(s.Name+": "+l.Label, l.USD)
			}
		}
		return run.Total()
	}
	rng := rand.New(rand.NewSource(19))
	pick := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000)) // denormal
		case 2:
			return 0.0173 + float64(rng.Intn(3))*1e-9 // values 1e-9 apart
		case 3:
			return rng.Float64() * 1e-6
		case 4:
			return rng.Float64() * 1e6
		default:
			return rng.Float64()
		}
	}
	differsFromSubtotals := 0
	for trial := 0; trial < 2000; trial++ {
		rep := &RunReport{}
		var bySubtotal float64
		for s := rng.Intn(6); s >= 0; s-- {
			c := billing.StageCost{Functions: pick(), Storage: pick(), VM: pick(), Cache: pick()}
			rep.Stages = append(rep.Stages, StageReport{Name: fmt.Sprintf("s%d", s), Cost: c})
			bySubtotal += c.Total()
		}
		metered, rendered, old := rep.MeteredUSD(), rep.Cost().Total(), retired(rep)
		if metered != rendered || metered != old {
			t.Fatalf("trial %d: MeteredUSD %v, Cost().Total() %v, retired construction %v",
				trial, metered, rendered, old)
		}
		if len(rep.Cost().Lines) != 4*len(rep.Stages) {
			t.Fatalf("trial %d: %d lines for %d stages", trial, len(rep.Cost().Lines), len(rep.Stages))
		}
		if metered != bySubtotal {
			differsFromSubtotals++
		}
	}
	if differsFromSubtotals == 0 {
		t.Error("per-stage subtotals never rounded differently: the costs drawn do not exercise the order")
	}
	if got := (&RunReport{}).MeteredUSD(); got != 0 {
		t.Errorf("empty run meters %v", got)
	}
}

// kept holds each workflow TestOneStageWorkflowIsOneAllocation builds,
// so that it lives on the heap as a job's does.
var kept *Workflow

// TestOneStageWorkflowIsOneAllocation: NewWorkflow and one Add with no
// dependencies allocate the workflow alone, its first node inline.
func TestOneStageWorkflowIsOneAllocation(t *testing.T) {
	st := &FuncStage{StageName: "work", Fn: func(*StageContext) error { return nil }}
	if n := testing.AllocsPerRun(100, func() {
		kept = NewWorkflow("one")
		if err := kept.Add(st); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("NewWorkflow plus one Add allocates %v times, want 1", n)
	}
}
