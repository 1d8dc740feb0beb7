package session_test

import (
	"runtime"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/session"
)

// TestNoOpJobAllocations holds what a job that charges nothing allocates
// to the control plane alone: one no-op stage through SubmitIn, on a
// session with a standing one-node cluster, as gateway-scale runs. It
// reads 2 mallocs a job: the run (report, its one stage's slot, the
// blackboard and the stage's StageContext, in one allocation) and the
// stage's scope. It read 3 while the StageContext was allocated per
// stage and the run kept the first error. It read 11 while the stage ran
// on a process of its own: the process, its wake closure, its name and
// its body, the wait state and the caller's place on it, and the report,
// its Stages, the blackboard and the first error one by one, and the
// StageContext. It read 13 when a stage read the global meters before
// and after it ran: the two were the copies of the provisioners'
// instance and cluster lists.
func TestNoOpJobAllocations(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{WarmCacheNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorkflow("noop")
	if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(*core.StageContext) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	job := session.WorkflowJob(w, nil)
	const jobs = 1000
	rig := sess.Rig()
	var before, after runtime.MemStats
	rig.Sim.Spawn("submitter", func(p *des.Proc) {
		if _, err := sess.SubmitIn(p, job); err != nil { // warm the pools
			t.Error(err)
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < jobs; i++ {
			if _, err := sess.SubmitIn(p, job); err != nil {
				t.Error(err)
				return
			}
		}
		runtime.ReadMemStats(&after)
	})
	if err := rig.Run(); err != nil {
		t.Fatal(err)
	}
	perJob := float64(after.Mallocs-before.Mallocs) / jobs
	t.Logf("%.2f mallocs per job", perJob)
	if perJob > 2.5 {
		t.Errorf("%.2f mallocs per no-op job, want at most 2", perJob)
	}
}
