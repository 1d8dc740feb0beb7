package shuffle_test

import (
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// TestSizedSortEventsPinned holds one sized Operator.Sort of the paper's
// 3.5 GB on calib.Paper() to the event count, final instant and store
// meters it had at commit 2dfa12d, when every store stream still ran a
// producer process. The stream's state machine (PR 21) fires one event
// where each activation of that process fired, so none of these may
// move: a change to the store's request path that shifts one of them
// has renumbered events or re-rolled the shared RNG, and every golden
// downstream is about to follow.
//
// The baton handoffs are a ceiling, not a pin: they are what a run pays
// for its events, not what it computes. With every store request a
// process sleeping through its waits (commit bb219e9) the two sorts
// cost 3,805 and 129,038; with a request a chain of events and a
// mapper's PUTs and a reducer's opens each one list (PR 22) they cost
// 3,059 and 18,701, nearly all of them the per-chunk ComputeBytes
// sleeps. A request path that suspends its caller per wait again shows
// up here long before it shows in a benchmark.
func TestSizedSortEventsPinned(t *testing.T) {
	const dataBytes = 3_500_000_000
	cases := []struct {
		workers  int
		fired    int64
		handoffs int64
		end      time.Duration
		store    objectstore.Metrics
	}{
		{16, 13762, 3200, 52432721167, objectstore.Metrics{
			ClassAOps: 275, ClassBOps: 274,
			BytesIn: 10500000000, BytesOut: 7000323599,
			ByteSeconds: 8.787796643653125e+10,
		}},
		{128, 197928, 20000, 55837907702, objectstore.Metrics{
			ClassAOps: 16515, ClassBOps: 16514,
			BytesIn: 10500000000, BytesOut: 7000782463,
			ByteSeconds: 1.1067546906097977e+11,
		}},
	}
	for _, tc := range cases {
		profile := calib.Paper()
		rig, err := calib.NewRig(profile)
		if err != nil {
			t.Fatal(err)
		}
		var runErr error
		rig.Sim.Spawn("sweep", func(p *des.Proc) {
			c := objectstore.NewClient(rig.Store)
			for _, b := range []string{"data", "work"} {
				if runErr = c.CreateBucket(p, b); runErr != nil {
					return
				}
			}
			if runErr = c.Put(p, "data", "in", payload.Sized(dataBytes)); runErr != nil {
				return
			}
			_, runErr = rig.Shuffle.Sort(p, shuffle.Spec{
				InputBucket: "data", InputKey: "in",
				OutputBucket: "work", OutputPrefix: "sorted/",
				Workers:      tc.workers,
				PartitionBps: profile.PartitionBps,
				MergeBps:     profile.MergeBps,
				MemoryMB:     profile.Faas.MemoryMB,
			})
		})
		if err := rig.Sim.Run(); err != nil || runErr != nil {
			t.Fatalf("w=%d: sim %v, run %v", tc.workers, err, runErr)
		}
		if got := rig.Sim.Fired(); got != tc.fired {
			t.Errorf("w=%d: %d events fired, pinned %d", tc.workers, got, tc.fired)
		}
		if got := rig.Sim.Handoffs(); got > tc.handoffs {
			t.Errorf("w=%d: %d handoffs, ceiling %d", tc.workers, got, tc.handoffs)
		}
		if got := rig.Sim.Now(); got != tc.end {
			t.Errorf("w=%d: run ends at %d ns, pinned %d", tc.workers, got, tc.end)
		}
		if got := rig.Store.Metrics(); got != tc.store {
			t.Errorf("w=%d: store meters\n got %+v\nwant %+v", tc.workers, got, tc.store)
		}
	}
}
