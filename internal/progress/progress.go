// Package progress implements a live job tracker for workflow runs:
// the text-terminal counterpart of the paper's IPython interface
// (§2.4), displaying stage progress in real (virtual) time and
// breaking the cost down at each stage.
package progress

import (
	"fmt"
	"io"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/core"
)

// Tracker renders workflow progress to a writer as stages start and
// finish, then prints a final per-stage summary with cost breakdown.
type Tracker struct {
	w io.Writer
	// Verbose also prints each stage's itemized cost lines as it
	// finishes.
	Verbose bool

	runStart  time.Duration
	haveStart bool
}

var _ core.Listener = (*Tracker)(nil)

// NewTracker returns a tracker writing to w.
func NewTracker(w io.Writer) *Tracker {
	return &Tracker{w: w}
}

// StageStarted implements core.Listener.
func (t *Tracker) StageStarted(workflow, stage string, at time.Duration) {
	if !t.haveStart {
		t.runStart = at
		t.haveStart = true
	}
	fmt.Fprintf(t.w, "[%8.2fs] %s/%s: started\n",
		(at - t.runStart).Seconds(), workflow, stage)
}

// StageFinished implements core.Listener.
func (t *Tracker) StageFinished(workflow string, rep core.StageReport) {
	status := "done"
	if rep.Err != nil {
		status = fmt.Sprintf("FAILED: %v", rep.Err)
	}
	fmt.Fprintf(t.w, "[%8.2fs] %s/%s: %s in %.2fs, $%.6f (%d invocations, %d store ops)\n",
		(rep.End - t.runStart).Seconds(), workflow, rep.Name, status,
		rep.Duration().Seconds(), rep.Cost.Total(),
		rep.Faas.Invocations, rep.Store.TotalOps())
	if t.Verbose {
		var lines billing.Report
		rep.Cost.AppendTo(&lines, "")
		fmt.Fprint(t.w, lines.String())
	}
}

// RunFinished implements core.Listener.
func (t *Tracker) RunFinished(rep *core.RunReport) {
	fmt.Fprintf(t.w, "\nworkflow %q finished in %.2fs\n", rep.Workflow, rep.Latency().Seconds())
	fmt.Fprintf(t.w, "%-12s %12s %12s %14s %12s\n",
		"stage", "start (s)", "end (s)", "duration (s)", "cost ($)")
	for _, s := range rep.Stages {
		fmt.Fprintf(t.w, "%-12s %12.2f %12.2f %14.2f %12.6f\n",
			s.Name, (s.Start - rep.Start).Seconds(), (s.End - rep.Start).Seconds(),
			s.Duration().Seconds(), s.Cost.Total())
	}
	fmt.Fprintf(t.w, "%-12s %12s %12s %14.2f %12.6f\n",
		"TOTAL", "", "", rep.Latency().Seconds(), rep.MeteredUSD())
	t.haveStart = false
}
