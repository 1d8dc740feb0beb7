package pipeline

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/session"
)

const autoDoc = `{
  "version": 2,
  "name": "auto-pipe",
  "input": {"bucket": "data", "key": "sample.bed"},
  "workBucket": "work",
  "stages": [
    {"name": "sort", "type": "shuffle", "strategy": "auto", "objective": "min-cost"},
    {"name": "encode", "type": "map", "function": "methcomp/encode", "dependsOn": ["sort"]}
  ]
}`

// TestV2AutoDocRunsThroughSession is the redesign's acceptance path: a
// v2 document with strategy "auto" and objective "min-cost" submitted
// through a Session runs end-to-end, and its RunReport names the
// planner-chosen strategy.
func TestV2AutoDocRunsThroughSession(t *testing.T) {
	d, err := Load([]byte(autoDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rep, err := sess.Submit(d.Job(JobConfig{Records: 1500}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sr, ok := rep.Stage("sort")
	if !ok || sr.Err != nil {
		t.Fatalf("sort stage: ok=%v err=%v", ok, sr.Err)
	}
	if !strings.Contains(sr.Detail, "auto-planned") {
		t.Errorf("RunReport sort detail %q does not carry the planner decision", sr.Detail)
	}
	if !strings.Contains(sr.Detail, "objective min-cost") {
		t.Errorf("RunReport sort detail %q does not carry the objective", sr.Detail)
	}
	if sess.History().Len() == 0 {
		t.Error("no predicted-vs-actual observation recorded")
	}

	// The second submission consults the measured history.
	if _, err := sess.Submit(d.Job(JobConfig{Records: 1500})); err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if sess.History().Len() < 2 {
		t.Errorf("history has %d observations after two submissions", sess.History().Len())
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestV2OmittedStrategyMeansAuto: a v2 shuffle with no strategy at all
// engages the planner.
func TestV2OmittedStrategyMeansAuto(t *testing.T) {
	doc := `{
	  "version": 2,
	  "name": "implicit-auto",
	  "input": {"bucket": "data", "key": "sample.bed"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "sort", "type": "shuffle"}
	  ]
	}`
	d, err := Load([]byte(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := Run(d, calib.Local(), JobConfig{Records: 1200})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sr, ok := rep.Stage("sort")
	if !ok || !strings.Contains(sr.Detail, "auto-planned") {
		t.Fatalf("sort detail = %q", sr.Detail)
	}
}

// TestV2DeadlineObjective: min-cost-within parses its deadline and
// runs.
func TestV2DeadlineObjective(t *testing.T) {
	doc := `{
	  "version": 2,
	  "name": "bounded",
	  "input": {"bucket": "data", "key": "sample.bed"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "sort", "type": "shuffle", "strategy": "auto",
	     "objective": "min-cost-within", "deadline": "5m"}
	  ]
	}`
	d, err := Load([]byte(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := Run(d, calib.Local(), JobConfig{Records: 1000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sr, _ := rep.Stage("sort")
	if !strings.Contains(sr.Detail, "min-cost-within") {
		t.Errorf("sort detail %q does not carry the bounded objective", sr.Detail)
	}
}
