package core

import (
	"testing"
	"unsafe"
)

// TestStageReportSizeClass: a report is stored once and passed by value
// to every listener, one a stage a job; without the duplicated VMUSD /
// CacheUSD it fits the 240-byte size class.
func TestStageReportSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(StageReport{}); got > 240 {
		t.Errorf("StageReport is %d bytes, want at most 240", got)
	}
}

// TestRunSizeClass: a run is the one allocation a one-stage job makes in
// this package (report, its stage's slot, blackboard and first stage's
// context); at 344 bytes it fits the 352-byte size class, and a field
// that tips it over costs every job the next one.
func TestRunSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(run{}); got > 352 {
		t.Errorf("run is %d bytes, want at most 352", got)
	}
}

// TestWorkflowSizeClass: a workflow with its first node inline is 80
// bytes, one size class, built once a job by gateway-scale's jobs.
func TestWorkflowSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Workflow{}); got > 80 {
		t.Errorf("Workflow is %d bytes, want at most 80", got)
	}
}
