package progress

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/faaspipe/faaspipe/internal/core"
)

// Event is one JSONL record emitted by the JSONTracker. Times are
// virtual-clock seconds since simulation start.
type Event struct {
	// Type is "stage_started", "stage_finished", or "run_finished".
	Type     string  `json:"type"`
	Workflow string  `json:"workflow"`
	Stage    string  `json:"stage,omitempty"`
	At       float64 `json:"at"`
	// Stage-finished fields.
	DurationS   float64 `json:"durationS,omitempty"`
	CostUSD     float64 `json:"costUSD,omitempty"`
	Invocations int64   `json:"invocations,omitempty"`
	ColdStarts  int64   `json:"coldStarts,omitempty"`
	Retries     int64   `json:"retries,omitempty"`
	StoreOps    int64   `json:"storeOps,omitempty"`
	Error       string  `json:"error,omitempty"`
	// Run-finished fields.
	LatencyS     float64 `json:"latencyS,omitempty"`
	TotalCostUSD float64 `json:"totalCostUSD,omitempty"`
}

// JSONTracker emits one JSON object per line for each run event — the
// machine-readable twin of Tracker, for dashboards and tooling.
type JSONTracker struct {
	w   io.Writer
	err error
}

var _ core.Listener = (*JSONTracker)(nil)

// NewJSONTracker returns a tracker writing JSONL to w.
func NewJSONTracker(w io.Writer) *JSONTracker {
	return &JSONTracker{w: w}
}

// Err reports the first encode error, if any (the Listener interface
// has no error channel, so failures are latched here).
func (t *JSONTracker) Err() error { return t.err }

func (t *JSONTracker) emit(e Event) {
	data, err := json.Marshal(e)
	if err != nil {
		if t.err == nil {
			t.err = fmt.Errorf("progress: encode event: %w", err)
		}
		return
	}
	if _, err := fmt.Fprintf(t.w, "%s\n", data); err != nil && t.err == nil {
		t.err = fmt.Errorf("progress: write event: %w", err)
	}
}

// StageStarted implements core.Listener.
func (t *JSONTracker) StageStarted(workflow, stage string, at time.Duration) {
	t.emit(Event{Type: "stage_started", Workflow: workflow, Stage: stage, At: at.Seconds()})
}

// StageFinished implements core.Listener.
func (t *JSONTracker) StageFinished(workflow string, rep core.StageReport) {
	e := Event{
		Type:        "stage_finished",
		Workflow:    workflow,
		Stage:       rep.Name,
		At:          rep.End.Seconds(),
		DurationS:   rep.Duration().Seconds(),
		CostUSD:     rep.Cost.Total(),
		Invocations: rep.Faas.Invocations,
		ColdStarts:  rep.Faas.ColdStarts,
		Retries:     rep.Faas.Retries,
		StoreOps:    rep.Store.TotalOps(),
	}
	if rep.Err != nil {
		e.Error = rep.Err.Error()
	}
	t.emit(e)
}

// RunFinished implements core.Listener.
func (t *JSONTracker) RunFinished(rep *core.RunReport) {
	t.emit(Event{
		Type:         "run_finished",
		Workflow:     rep.Workflow,
		At:           rep.End.Seconds(),
		LatencyS:     rep.Latency().Seconds(),
		TotalCostUSD: rep.MeteredUSD(),
	})
}
