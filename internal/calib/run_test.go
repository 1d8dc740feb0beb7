package calib

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// TestRunNamesAnAbandonedStream is the probe that, while a process
// produced a stream's chunks, ended in "des: deadlock, 1 process(es)
// parked: objectstore/stream#1/b/k@0": a stream opened and neither
// drained nor closed. The kernel has nothing parked to report now;
// Rig.Run must fail all the same, and name the stream.
func TestRunNamesAnAbandonedStream(t *testing.T) {
	probe := func(leak bool) error {
		rig, err := NewRig(Local())
		if err != nil {
			t.Fatal(err)
		}
		rig.Sim.Spawn("probe", func(p *des.Proc) {
			c := objectstore.NewClient(rig.Store)
			if err := c.CreateBucket(p, "b"); err != nil {
				t.Error(err)
				return
			}
			if err := c.Put(p, "b", "k", payload.Sized(64<<20)); err != nil {
				t.Error(err)
				return
			}
			st, err := c.GetStream(p, "b", "k", 0, -1, objectstore.StreamOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if !leak {
				st.Close()
			}
		})
		return rig.Run()
	}
	if err := probe(false); err != nil {
		t.Fatalf("closed stream: Run = %v", err)
	}
	err := probe(true)
	if err == nil || !strings.Contains(err.Error(), "objectstore/stream#1/b/k@0") {
		t.Fatalf("abandoned stream: Run = %v, want an error naming objectstore/stream#1/b/k@0", err)
	}
}
