package shuffle_test

import (
	"errors"
	"maps"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/memcache"
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
// sleeps; with every timing-only drain one chain of events too, they
// cost 226 and 1,777. A request or drain path that suspends its caller
// per wait again shows up here long before it shows in a benchmark.
func TestSizedSortEventsPinned(t *testing.T) {
	const dataBytes = 3_500_000_000
	cases := []struct {
		workers  int
		fired    int64
		handoffs int64
		end      time.Duration
		store    objectstore.Metrics
	}{
		{16, 13762, 300, 52432721167, objectstore.Metrics{
			ClassAOps: 275, ClassBOps: 274,
			BytesIn: 10500000000, BytesOut: 7000323599,
			ByteSeconds: 8.787796643653125e+10,
		}},
		{128, 197928, 2000, 55837907702, objectstore.Metrics{
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

// sizedSort spawns the sort TestSizedSortEventsPinned runs, over
// workers, on a new rig.
func sizedSort(t *testing.T, workers int) *calib.Rig {
	t.Helper()
	profile := calib.Paper()
	rig, err := calib.NewRig(profile)
	if err != nil {
		t.Fatal(err)
	}
	rig.Sim.Spawn("sweep", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		for _, b := range []string{"data", "work"} {
			if err := c.CreateBucket(p, b); err != nil {
				return
			}
		}
		if err := c.Put(p, "data", "in", payload.Sized(3_500_000_000)); err != nil {
			return
		}
		rig.Shuffle.Sort(p, shuffle.Spec{
			InputBucket: "data", InputKey: "in",
			OutputBucket: "work", OutputPrefix: "sorted/",
			Workers:      workers,
			PartitionBps: profile.PartitionBps,
			MergeBps:     profile.MergeBps,
			MemoryMB:     profile.Faas.MemoryMB,
		})
	})
	return rig
}

// TestReadSetReuseIsInvisible runs TestSizedSortEventsPinned's sized
// sort at 48 and 128 workers three times each, every run on a fresh rig:
// the first on an empty list of read sets, the later two on the sets the
// run before gave back. Reuse must not show in the simulation: every run
// fires as many events, ends at the same instant with the same store
// meters (their byte-seconds integral moves with any instant a transfer
// starts or ends), leaves the next draw of its RNG where it was, and
// leaves no stream open. The later runs must make no set afresh.
func TestReadSetReuseIsInvisible(t *testing.T) {
	type outcome struct {
		fired, draw int64
		end         time.Duration
		store       objectstore.Metrics
	}
	for _, w := range []int{48, 128} {
		shuffle.EmptyFreeReadSets(t)
		var first outcome
		var sets map[*objectstore.ClientStream]int
		for run := range 3 {
			rig := sizedSort(t, w)
			if err := rig.Sim.Run(); err != nil {
				t.Fatalf("w=%d, run %d: %v", w, run, err)
			}
			if open := rig.Store.OpenStreams(); len(open) != 0 {
				t.Errorf("w=%d, run %d: %d streams left open", w, run, len(open))
			}
			got := outcome{rig.Sim.Fired(), rig.Sim.Rand().Int63(), rig.Sim.Now(), rig.Store.Metrics()}
			free := shuffle.FreeReadSets()
			if run == 0 {
				first, sets = got, free
				if len(sets) != w {
					t.Fatalf("w=%d: the first run left %d read sets on the list, want one a reducer", w, len(sets))
				}
				continue
			}
			if got != first {
				t.Errorf("w=%d, run %d on reclaimed sets:\n got %+v\nwant %+v", w, run, got, first)
			}
			if !maps.Equal(free, sets) {
				t.Errorf("w=%d, run %d made read sets afresh: %d on the list, %d of them the first run's", w, run, len(free), len(sets))
			}
		}
		t.Logf("w=%d: %d events, done at %v, on %d reclaimed sets", w, first.fired, first.end, len(sets))
	}
}

// TestSizedSortKilledMidDrainPinned stops a sized sort with RunUntil
// where functions sit in a timing-only drain (16, 8, 11 and 16 of them
// at the four 16-worker horizons, 9 at the 128-worker one), which kills
// every process, then runs out what is left on the heap with Run. The
// numbers were recorded at commit 17cdda7, where every drain was a
// process parked in Next and asleep through each chunk's CPU, so there
// was no drain chain to outlive its process: the events fired, the
// instant the heap drained and what the store served and left open must
// be those. A chain callback that fired for a killed process would add
// an event. Two rows were re-recorded once every store request became a
// chain its caller awaits (w=16 at 46 s, w=128 at 38.5 s): at 17cdda7 a
// killed mapper's PutEach went on storing its runs, and a killed
// reducer's GetStreams went on opening, after the horizon. No request
// does now, so the class A and B operations and the bytes in that the
// store has served by the horizon are all it ever serves.
func TestSizedSortKilledMidDrainPinned(t *testing.T) {
	cases := []struct {
		workers     int
		horizon     time.Duration
		atHorizon   int64
		fired       int64
		end         time.Duration
		store       objectstore.Metrics
		streamsLeft int
	}{
		{16, 38500 * time.Millisecond, 794, 822, 38543173008, objectstore.Metrics{
			ClassAOps: 3, ClassBOps: 18, BytesIn: 3500000000, BytesOut: 897843200, ByteSeconds: 5.764737104e+09,
		}, 0},
		{16, 41 * time.Second, 3340, 3349, 41040579743, objectstore.Metrics{
			ClassAOps: 3, ClassBOps: 18, BytesIn: 3500000000, BytesOut: 3471910426, ByteSeconds: 1.4505660676500002e+10,
		}, 0},
		{16, 46 * time.Second, 6044, 6243, 46031459769, objectstore.Metrics{
			ClassAOps: 259, ClassBOps: 249, BytesIn: 7000000000, BytesOut: 4457354675, ByteSeconds: 4.190802957534375e+10,
		}, 55},
		{16, 49 * time.Second, 12162, 12228, 49015436151, objectstore.Metrics{
			ClassAOps: 259, ClassBOps: 274, BytesIn: 7000000000, BytesOut: 6518389952, ByteSeconds: 6.279586424934375e+10,
		}, 0},
		{128, 38500 * time.Millisecond, 7638, 7785, 38547995445, objectstore.Metrics{
			ClassAOps: 785, ClassBOps: 130, BytesIn: 3666199135, BytesOut: 3500782463, ByteSeconds: 5.822223949611725e+09,
		}, 0},
	}
	for _, tc := range cases {
		rig := sizedSort(t, tc.workers)
		if err := rig.Sim.RunUntil(tc.horizon); !errors.Is(err, des.ErrSimLimit) {
			t.Fatalf("w=%d: RunUntil(%v): %v", tc.workers, tc.horizon, err)
		}
		if got := rig.Sim.Fired(); got != tc.atHorizon {
			t.Errorf("w=%d, %v: %d events fired by the horizon, pinned %d", tc.workers, tc.horizon, got, tc.atHorizon)
		}
		// Read without Metrics(), whose accrual would split the
		// byte-seconds integral here and move its last bit.
		at := rig.Store.Ledger().Total
		if err := rig.Sim.Run(); err != nil {
			t.Fatalf("w=%d, %v: resumed run: %v", tc.workers, tc.horizon, err)
		}
		if got := rig.Store.Ledger().Total; got.ClassAOps != at.ClassAOps || got.ClassBOps != at.ClassBOps || got.BytesIn != at.BytesIn {
			t.Errorf("w=%d, %v: requests served for killed callers: class A %d -> %d, class B %d -> %d, bytes in %d -> %d after the horizon",
				tc.workers, tc.horizon, at.ClassAOps, got.ClassAOps, at.ClassBOps, got.ClassBOps, at.BytesIn, got.BytesIn)
		}
		if got := rig.Sim.Fired(); got != tc.fired {
			t.Errorf("w=%d, %v: %d events fired, pinned %d", tc.workers, tc.horizon, got, tc.fired)
		}
		if got := rig.Sim.Now(); got != tc.end {
			t.Errorf("w=%d, %v: heap drained at %d ns, pinned %d", tc.workers, tc.horizon, got, tc.end)
		}
		if got := rig.Store.Metrics(); got != tc.store {
			t.Errorf("w=%d, %v: store meters\n got %+v\nwant %+v", tc.workers, tc.horizon, got, tc.store)
		}
		if got := len(rig.Store.OpenStreams()); got != tc.streamsLeft {
			t.Errorf("w=%d, %v: %d streams left open, pinned %d", tc.workers, tc.horizon, got, tc.streamsLeft)
		}
	}
}

// TestCacheSortEventsPinned is TestSizedSortEventsPinned for the cache
// exchange: a sized Operator.Sort of 3.5 GB on calib.Paper() through a
// warm cluster, held to the event count, final instant and cluster
// meters it had when every cache request was a process that took its
// token in TokenBucket.Take and slept out its latency. A cache request
// is now a chain its caller awaits (memcache.Cluster.admit), which must
// fire the same events: a change to it that moves one of these numbers
// is a bug, not a re-record. The handoffs are a ceiling, as there,
// recorded from the process form; they may only fall.
func TestCacheSortEventsPinned(t *testing.T) {
	const dataBytes = 3_500_000_000
	cases := []struct {
		workers  int
		fired    int64
		handoffs int64
		end      time.Duration
		cache    memcache.Metrics
	}{
		{16, 7891, 1301, 54107404674, memcache.Metrics{
			SetOps: 256, GetOps: 256, DeleteOps: 256, Hits: 256,
			BytesIn: dataBytes, BytesOut: dataBytes,
		}},
		{64, 53269, 23795, 46337780365, memcache.Metrics{
			SetOps: 4096, GetOps: 4096, DeleteOps: 4096, Hits: 4096,
			BytesIn: dataBytes, BytesOut: dataBytes,
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
				Exchange:     shuffle.ViaCache,
				Warm:         true,
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
		clusters := rig.CacheProv.Clusters()
		if len(clusters) != 1 {
			t.Fatalf("w=%d: %d clusters provisioned, want 1", tc.workers, len(clusters))
		}
		if got := clusters[0].Metrics(); got != tc.cache {
			t.Errorf("w=%d: cache meters\n got %+v\nwant %+v", tc.workers, got, tc.cache)
		}
	}
}
