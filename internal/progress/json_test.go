package progress

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/core"
)

func jsonStageReport(err error) core.StageReport {
	rep := core.StageReport{
		Name:  "sort",
		Start: 2 * time.Second,
		End:   5 * time.Second,
		Err:   err,
	}
	rep.Faas.Invocations = 8
	rep.Faas.ColdStarts = 8
	rep.Faas.Retries = 1
	rep.Cost.Functions = 0.004
	return rep
}

func TestJSONTrackerEmitsEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONTracker(&buf)
	tr.StageStarted("wf", "sort", 2*time.Second)
	tr.StageFinished("wf", jsonStageReport(nil))
	run := &core.RunReport{Workflow: "wf", Start: 0, End: 6 * time.Second,
		Stages: []core.StageReport{{Name: "sort"}}}
	run.Stages[0].Cost.VM = 0.01
	tr.RunFinished(run)
	if tr.Err() != nil {
		t.Fatalf("tracker error: %v", tr.Err())
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0].Type != "stage_started" || events[0].Stage != "sort" || events[0].At != 2 {
		t.Errorf("start event = %+v", events[0])
	}
	if events[1].Type != "stage_finished" || events[1].DurationS != 3 ||
		events[1].Invocations != 8 || events[1].Retries != 1 || events[1].Error != "" {
		t.Errorf("finish event = %+v", events[1])
	}
	if events[2].Type != "run_finished" || events[2].LatencyS != 6 || events[2].TotalCostUSD != 0.01 {
		t.Errorf("run event = %+v", events[2])
	}
}

func TestJSONTrackerRecordsStageError(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONTracker(&buf)
	tr.StageFinished("wf", jsonStageReport(errors.New("boom")))
	var e Event
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if e.Error != "boom" {
		t.Fatalf("error field = %q", e.Error)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONTrackerLatchesWriteError(t *testing.T) {
	tr := NewJSONTracker(failingWriter{})
	tr.StageStarted("wf", "s", 0)
	if tr.Err() == nil {
		t.Fatal("write error not latched")
	}
	first := tr.Err()
	tr.StageStarted("wf", "s2", 0)
	if tr.Err() != first {
		t.Fatal("first error not preserved")
	}
}
