package shuffle_test

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// TestFoldCountsMatchSimulator holds the wave lists' request and
// invocation counts to what the simulated cloud meters: a sized 64 MiB
// sort per function family on calib.Local, in the configurations
// skeleton_trace.golden runs. It is what keeps the wave table in
// EXPERIMENTS.md true.
//
// Invocations, class B (the driver's Head and sample included) and the
// buffered runs' class A match exactly. The reducers' output does not,
// and that is a finding, asserted here as it stands rather than tuned
// away: a sized payload has no bytes to cut into parts, so
// mergeToOutput aborts the multipart upload and writes each reducer's
// output as ONE plain PUT, where the wave list prices what the
// real-bytes data plane issues, PutStreamRequests(output, part) per
// reducer. Every paper-scale experiment runs sized, so the planner
// over-counts class A by workers x (parts - 1) against the simulator.
func TestFoldCountsMatchSimulator(t *testing.T) {
	const size = 64 << 20
	profile := calib.Local()
	in := calib.PlanInput(profile, size)
	store := shuffle.ProfileOf(profile.Store)
	spec := func(workers int) shuffle.Spec {
		return shuffle.Spec{
			InputBucket: "in", InputKey: "data.bed",
			OutputBucket: "out", OutputPrefix: "sorted/",
			Workers: workers,
		}
	}
	cases := []struct {
		name string
		plan shuffle.Plan
		run  func(rig *calib.Rig, p *des.Proc) error
	}{
		{"sort-w6", shuffle.Predict(6, in, store), func(rig *calib.Rig, p *des.Proc) error {
			_, err := rig.Shuffle.Sort(p, spec(6))
			return err
		}},
		{"hier-w8-g4", shuffle.PredictHierarchical(8, 4, in, store), func(rig *calib.Rig, p *des.Proc) error {
			s := spec(8)
			s.Exchange, s.Groups = shuffle.ViaStoreTwoLevel, 4
			_, err := rig.Shuffle.Sort(p, s)
			return err
		}},
		{"cache-w5", shuffle.PredictCache(5, in, store, shuffle.CacheProfile(profile.Cache, 3), 0), func(rig *calib.Rig, p *des.Proc) error {
			s := spec(5)
			s.Exchange, s.Nodes = shuffle.ViaCache, 3
			_, err := rig.Shuffle.Sort(p, s)
			return err
		}},
	}
	for _, tc := range cases {
		rig, err := calib.NewRig(profile)
		if err != nil {
			t.Fatal(err)
		}
		var storeBefore objectstore.Metrics
		var runErr error
		rig.Sim.Spawn("driver", func(p *des.Proc) {
			c := objectstore.NewClient(rig.Store)
			for _, b := range []string{"in", "out"} {
				if runErr = c.CreateBucket(p, b); runErr != nil {
					return
				}
			}
			if runErr = c.Put(p, "in", "data.bed", payload.Sized(size)); runErr != nil {
				return
			}
			storeBefore = rig.Store.Metrics()
			runErr = tc.run(rig, p)
		})
		if err := rig.Sim.Run(); err != nil || runErr != nil {
			t.Fatalf("%s: sim %v, run %v", tc.name, err, runErr)
		}
		used := rig.Store.Metrics().Sub(storeBefore)
		w := int64(tc.plan.Workers)
		perReducer := size / w
		parts := objectstore.PutStreamRequests(perReducer, shuffle.AdaptiveChunkBytes(0, perReducer))
		if parts < 3 {
			t.Fatalf("%s: output of %d bytes is a single part: the case no longer shows the multipart gap", tc.name, perReducer)
		}
		if got := rig.Platform.Meter().Invocations; got != int64(tc.plan.Invocations) {
			t.Errorf("%s: %d invocations metered, wave list predicts %d", tc.name, got, tc.plan.Invocations)
		}
		if want := tc.plan.ClassB + shuffle.DriverReads; used.ClassBOps != want {
			t.Errorf("%s: %d class B metered, wave list + driver predicts %d", tc.name, used.ClassBOps, want)
		}
		if want := tc.plan.ClassA - w*(parts-1); used.ClassAOps != want {
			t.Errorf("%s: %d class A metered, want %d (wave list %d less the sized mode's %d parts a reducer it never uploads)",
				tc.name, used.ClassAOps, want, tc.plan.ClassA, parts-1)
		}
	}
}
