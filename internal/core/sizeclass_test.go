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
