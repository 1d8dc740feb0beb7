package session_test

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/session"
)

// TestReportRunsInSubmissionOrder: the session keeps its reports in
// chunks of 1,024 and Close flattens them, so Report.Runs holds every
// report SubmitIn returned, the same pointers in submission order, on
// both sides of a chunk boundary and with none, one or a full chunk and
// one more.
func TestReportRunsInSubmissionOrder(t *testing.T) {
	w := core.NewWorkflow("noop")
	if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(*core.StageContext) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	job := session.WorkflowJob(w, nil)
	for _, n := range []int{0, 1, 1023, 1024, 1025, 2049} {
		sess, err := session.Open(calib.Local(), session.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]*core.RunReport, n)
		rig := sess.Rig()
		rig.Sim.Spawn("submitter", func(p *des.Proc) {
			for i := range reps {
				if reps[i], err = sess.SubmitIn(p, job); err != nil {
					t.Error(err)
					return
				}
			}
		})
		if err := rig.Run(); err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Submissions != n || len(rep.Runs) != n {
			t.Fatalf("%d runs: Submissions %d, len(Runs) %d", n, rep.Submissions, len(rep.Runs))
		}
		for i, r := range rep.Runs {
			if r == nil || r != reps[i] {
				t.Fatalf("%d runs: Runs[%d] is not the report of submission %d", n, i, i)
			}
		}
		if n > 0 && rep.Closed != reps[n-1].End {
			t.Errorf("%d runs: closed at %v, want the last run's end %v", n, rep.Closed, reps[n-1].End)
		}
	}
}
