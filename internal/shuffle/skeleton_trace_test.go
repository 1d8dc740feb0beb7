package shuffle

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// traceCase is one operator configuration of the skeleton trace.
type traceCase struct {
	name string
	// run executes the job on a fresh rig and reports the output keys
	// plus the cache-recovery counters (zero for the store operators).
	run func(rig *testRig, cop *CacheOperator, p *des.Proc) (Result, [3]int64, error)
	// fault, when set, is spawned beside the driver to break the cache.
	fault func(prov *memcache.Provisioner, p *des.Proc)
}

// whenCluster polls until the job's cluster satisfies ready, then
// applies kill to it. It gives up after 30 virtual seconds so a broken
// trigger cannot hang the sim.
func whenCluster(ready func(*memcache.Cluster) bool, kill func(*memcache.Cluster)) func(*memcache.Provisioner, *des.Proc) {
	return func(prov *memcache.Provisioner, p *des.Proc) {
		for p.Now() < 30*time.Second {
			if cls := prov.Clusters(); len(cls) > 0 && ready(cls[0]) {
				kill(cls[0])
				return
			}
			p.Sleep(time.Millisecond)
		}
	}
}

func traceCases() []traceCase {
	cache := func(_ *testRig, cop *CacheOperator, p *des.Proc) (Result, [3]int64, error) {
		spec := cacheSpec(5)
		spec.Nodes = 3
		res, err := cop.Sort(p, spec)
		return res, [3]int64{int64(res.FallbackSlabs), int64(res.Restarts), res.ReworkBytes}, err
	}
	killAll := func(c *memcache.Cluster) {
		for i := 0; i < c.Nodes(); i++ {
			c.KillNode(i)
		}
	}
	return []traceCase{
		{name: "sort-w6", run: func(rig *testRig, _ *CacheOperator, p *des.Proc) (Result, [3]int64, error) {
			res, err := rig.op.Sort(p, sortSpec(6))
			return res, [3]int64{}, err
		}},
		{name: "hier-w8-g4", run: func(rig *testRig, _ *CacheOperator, p *des.Proc) (Result, [3]int64, error) {
			res, err := rig.op.SortHierarchical(p, hierSpec(8, 4))
			return res, [3]int64{}, err
		}},
		{name: "cache-w5", run: cache},
		{name: "cache-w5-kill-mid-map", run: cache, fault: whenCluster(
			func(c *memcache.Cluster) bool { return c.UsedBytes() > 0 },
			func(c *memcache.Cluster) { c.KillNode(0) })},
		// Every slab is Set and the reducers are still starting: the
		// reduce wave fails on the dead shard and the recovery loop runs.
		{name: "cache-w5-kill-before-reduce", run: cache, fault: whenCluster(
			func(c *memcache.Cluster) bool { return c.Metrics().SetOps == 25 },
			func(c *memcache.Cluster) { c.KillNode(1) })},
		{name: "cache-w5-cluster-dead", run: cache, fault: whenCluster(
			func(*memcache.Cluster) bool { return true }, killAll)},
	}
}

// skeletonTrace runs every case in real and sized mode and renders one
// line per run: everything a handler's call order can move.
func skeletonTrace(t *testing.T) string {
	t.Helper()
	recs := bed.Generate(bed.GenConfig{Records: 5000, Seed: 86, Sorted: false})
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	for _, tc := range traceCases() {
		for _, mode := range []string{"real", "sized"} {
			rig, prov, cop := newCacheRig(t)
			var (
				res   Result
				rec   [3]int64
				err   error
				sum   [32]byte
				outSz int64
				end   time.Duration
			)
			rig.sim.Spawn("driver", func(p *des.Proc) {
				if mode == "real" {
					rig.loadInput(t, p, recs)
				} else {
					c := objectstore.NewClient(rig.store)
					_ = c.CreateBucket(p, "in")
					_ = c.CreateBucket(p, "out")
					if perr := c.Put(p, "in", "data.bed", payload.Sized(64<<20)); perr != nil {
						t.Errorf("put: %v", perr)
						return
					}
				}
				if res, rec, err = tc.run(rig, cop, p); err != nil {
					return
				}
				end = p.Now()
				if mode == "real" {
					raw := fetchRawParts(t, rig, p, res.OutputKeys)
					sum, outSz = sha256.Sum256(raw), int64(len(raw))
				}
			})
			if tc.fault != nil {
				rig.sim.Spawn("fault", func(p *des.Proc) { tc.fault(prov, p) })
			}
			if serr := rig.sim.Run(); serr != nil {
				t.Fatalf("%s/%s: sim: %v", tc.name, mode, serr)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, mode, err)
			}
			sm, fm := rig.store.Metrics(), rig.pf.Meter()
			var cm memcache.Metrics
			if cls := prov.Clusters(); len(cls) > 0 {
				cm = cls[0].Metrics()
			}
			fmt.Fprintf(&b, "%s/%s end_ns=%d fired=%d sample_ns=%d phase1_ns=%d phase2_ns=%d parts=%d"+
				" store{a=%d b=%d del=%d in=%d out=%d throttled=%d}"+
				" faas{inv=%d gbs=%s cold=%d warm=%d exec_ns=%d}"+
				" cache{set=%d get=%d del=%d hit=%d miss=%d in=%d out=%d}"+
				" fallback_slabs=%d restarts=%d rework_bytes=%d out_bytes=%d out_sha256=%x\n",
				tc.name, mode, int64(end), rig.sim.Fired(), int64(res.Sample), int64(res.Phase1), int64(res.Phase2), len(res.OutputKeys),
				sm.ClassAOps, sm.ClassBOps, sm.DeleteOps, sm.BytesIn, sm.BytesOut, sm.Throttled,
				fm.Invocations, f(fm.GBSeconds), fm.ColdStarts, fm.WarmStarts, int64(fm.ExecTime),
				cm.SetOps, cm.GetOps, cm.DeleteOps, cm.Hits, cm.Misses, cm.BytesIn, cm.BytesOut,
				rec[0], rec[1], rec[2], outSz, sum[:8])
		}
	}
	return b.String()
}

// TestSkeletonTraceGolden pins what the three Sort drivers and their
// handlers do to the simulated cloud — end virtual time, fired events,
// store / platform / cache counters, recovery counters and the output
// bytes — so a restructuring of the package that reorders one store,
// cache or ComputeBytes call shows up as a diff. The file was recorded
// at commit 357016d, before the operators were folded into one
// skeleton; it is compared, never rewritten.
func TestSkeletonTraceGolden(t *testing.T) {
	got := skeletonTrace(t)
	golden := filepath.Join("testdata", "skeleton_trace.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v\ngot:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("skeleton trace drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	if again := skeletonTrace(t); again != got {
		t.Error("skeleton trace is not deterministic run to run")
	}
}
