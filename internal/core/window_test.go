package core

import (
	"testing"
	"unsafe"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// TestUsageWindowAllocatesNothing: the window every stage opens and
// closes is plain values on the stack. The executor here has both
// provisioners and nothing provisioned: the copies Instances() and
// Clusters() hand out once something is are the provisioners' own.
func TestUsageWindowAllocatesNothing(t *testing.T) {
	r := newRig(t)
	cacheProv, err := memcache.NewProvisioner(r.sim, memcache.DefaultConfig())
	if err != nil {
		t.Fatalf("cache provisioner: %v", err)
	}
	r.exec.CacheProv = cacheProv
	var (
		fm    faas.Meter
		sm    objectstore.Metrics
		cost  billing.StageCost
		alone bool
	)
	allocs := testing.AllocsPerRun(100, func() {
		win := r.exec.openWindow()
		fm, sm, cost, alone = win.close(r.exec)
	})
	if allocs != 0 {
		t.Errorf("opening and closing a usage window allocates %.0f times, want 0", allocs)
	}
	if fm != (faas.Meter{}) || sm != (objectstore.Metrics{}) || cost != (billing.StageCost{}) || !alone {
		t.Errorf("idle window closed with %+v %+v %+v alone=%v, want zero usage, alone", fm, sm, cost, alone)
	}
}

// TestStageReportSizeClass: a report is stored once and passed by value
// to every listener, one a stage a job; without the duplicated VMUSD /
// CacheUSD it fits the 240-byte size class.
func TestStageReportSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(StageReport{}); got > 240 {
		t.Errorf("StageReport is %d bytes, want at most 240", got)
	}
}
