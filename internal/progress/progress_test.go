package progress

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/faas"
)

func sampleStageReport(name string, start, end time.Duration, err error) core.StageReport {
	rep := core.StageReport{
		Name:  name,
		Start: start,
		End:   end,
		Err:   err,
		Faas:  faas.Meter{Invocations: 8, GBSeconds: 100},
		Cost:  billing.StageCost{Functions: 0.0017, Storage: 0.0002},
	}
	return rep
}

func TestTrackerStageLifecycle(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracker(&buf)
	tr.StageStarted("wf", "sort", 10*time.Second)
	tr.StageFinished("wf", sampleStageReport("sort", 10*time.Second, 40*time.Second, nil))
	out := buf.String()
	for _, want := range []string{"wf/sort: started", "done in 30.00s", "8 invocations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Times are relative to the first stage start.
	if !strings.Contains(out, "[    0.00s]") {
		t.Fatalf("start not rebased to zero:\n%s", out)
	}
}

func TestTrackerReportsFailure(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracker(&buf)
	tr.StageStarted("wf", "sort", 0)
	tr.StageFinished("wf", sampleStageReport("sort", 0, time.Second, errors.New("kaput")))
	if !strings.Contains(buf.String(), "FAILED: kaput") {
		t.Fatalf("failure not reported:\n%s", buf.String())
	}
}

func TestTrackerVerboseCostBreakdown(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracker(&buf)
	tr.Verbose = true
	tr.StageStarted("wf", "sort", 0)
	tr.StageFinished("wf", sampleStageReport("sort", 0, time.Second, nil))
	out := buf.String()
	if !strings.Contains(out, "functions") || !strings.Contains(out, "TOTAL") {
		t.Fatalf("verbose breakdown missing:\n%s", out)
	}
}

func TestTrackerRunSummary(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracker(&buf)
	rep := &core.RunReport{
		Workflow: "methcomp",
		Start:    5 * time.Second,
		End:      95 * time.Second,
		Stages: []core.StageReport{
			sampleStageReport("sort", 5*time.Second, 42*time.Second, nil),
			sampleStageReport("encode", 42*time.Second, 95*time.Second, nil),
		},
	}
	tr.RunFinished(rep)
	out := buf.String()
	// The run's total is the sum of its stages: 2 x (0.0017 + 0.0002).
	for _, want := range []string{`workflow "methcomp" finished in 90.00s`, "sort", "encode", "TOTAL", "0.003800"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
