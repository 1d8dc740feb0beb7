package core

import (
	"runtime"
	"testing"
	"time"
)

// TestHeldReportPinsNoProcess: a session keeps every report until it
// closes, 100k of them on gateway-scale, and a report is a field of the
// run it was made in. So the run must let go of what served the job
// once Run returns: the first stage's context (the caller's process and
// the stage's outcome) and the blackboard (what a stage handed the next
// one). Each of the three carries a finalizer, and with the report and
// the rig held they must all be collected.
func TestHeldReportPinsNoProcess(t *testing.T) {
	type output struct{ keys []string }
	collected := make(chan string, 3)
	watch := func(v any, name string) { runtime.SetFinalizer(v, func(any) { collected <- name }) }
	r := newRig(t)
	w := NewWorkflow("held")
	if err := w.Add(&FuncStage{StageName: "first", Fn: func(ctx *StageContext) error {
		watch(ctx.Proc, "the job's process")
		ctx.Outcome = &StageOutcome{Detail: "first"}
		watch(ctx.Outcome, "the first stage's outcome")
		out := &output{keys: []string{"a", "b"}}
		watch(out, "the blackboard's entry")
		ctx.State.Set("out", out)
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(&FuncStage{StageName: "second", Fn: func(ctx *StageContext) error {
		ctx.Proc.Sleep(time.Second)
		if _, ok := ctx.State.values["out"].(*output); !ok {
			t.Error("the second stage found no output on the blackboard")
		}
		return nil
	}}, "first"); err != nil {
		t.Fatal(err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := rep.Stage("first"); !ok || s.Detail != "first" {
		t.Fatalf("first stage's report %+v, want its outcome copied", s)
	}
	left := map[string]bool{"the job's process": true, "the first stage's outcome": true, "the blackboard's entry": true}
	deadline := time.Now().Add(5 * time.Second)
	for len(left) > 0 && time.Now().Before(deadline) {
		runtime.GC()
		select {
		case name := <-collected:
			delete(left, name)
		case <-time.After(10 * time.Millisecond):
		}
	}
	for name := range left {
		t.Errorf("%s is still reachable from a held report", name)
	}
	runtime.KeepAlive(rep)
	runtime.KeepAlive(r)
}
