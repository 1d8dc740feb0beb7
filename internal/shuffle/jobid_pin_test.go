package shuffle_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// jobTrace is what one sort leaves behind that names it: the ID its
// scratch keys carry, the first of those keys, and the function every
// wave ran under.
type jobTrace struct {
	id, firstKey string
	waves        []string
}

func (j jobTrace) String() string {
	return fmt.Sprintf("%s %s %s", j.id, j.firstKey, strings.Join(j.waves, ","))
}

// jobIDOf recovers the job ID from a scratch key: a store run
// "<id>/m…", a two-level run "<id>-r1/…" or "<id>-r2-gNNNN/…", or a
// cache slab's store fallback "fallback/<id>/…".
func jobIDOf(key string) string {
	id, _, _ := strings.Cut(strings.TrimPrefix(key, "fallback/"), "/")
	if i := strings.Index(id, "-r"); i >= 0 {
		id = id[:i]
	}
	return id
}

// newScratch lists the work bucket's keys outside every sort's output
// prefix that were not in seen, sorted, and adds them to seen.
func newScratch(t *testing.T, p *des.Proc, store *objectstore.Service, seen map[string]bool) []string {
	t.Helper()
	keys, err := objectstore.NewClient(store).ListAll(p, "work", "")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var fresh []string
	for _, k := range keys {
		if !seen[k] && !strings.HasPrefix(k, "sorted-") {
			fresh = append(fresh, k)
		}
		seen[k] = true
	}
	sort.Strings(fresh)
	return fresh
}

// waveNames collapses an activation log into the function name of each
// wave, in order.
func waveNames(acts []string) []string {
	var out []string
	for _, fn := range acts {
		if len(out) == 0 || out[len(out)-1] != fn {
			out = append(out, fn)
		}
	}
	return out
}

// stageSized creates the buckets and a sized input object.
func stageSized(t *testing.T, p *des.Proc, store *objectstore.Service) {
	t.Helper()
	c := objectstore.NewClient(store)
	for _, b := range []string{"data", "work"} {
		if err := c.CreateBucket(p, b); err != nil {
			t.Fatalf("bucket %s: %v", b, err)
		}
	}
	if err := c.Put(p, "data", "in", payload.Sized(4<<20)); err != nil {
		t.Fatalf("put input: %v", err)
	}
}

// halfDeadCluster provisions a two-node cluster and kills node 0, so
// the slabs sharded there take the store fallback and their keys become
// visible in the work bucket.
func halfDeadCluster(t *testing.T, p *des.Proc, prov *memcache.Provisioner) *memcache.Cluster {
	t.Helper()
	cl, err := prov.ProvisionWarm(p, 2)
	if err != nil {
		t.Fatalf("provision: %v", err)
	}
	cl.KillNode(0)
	return cl
}

// TestJobIDsAndRunKeysPinned pins how jobs are numbered and keyed across
// the exchanges one rig runs: store and two-level jobs draw from one
// counter, cache jobs from their own. A cache slab's key picks its
// memcache shard by hash, so renumbering cache jobs would move virtual
// times; this is the pin under any change to how an operator mints IDs.
// The first key of a cache job is a slab's store fallback: node 0 of the
// cluster it runs on is down.
func TestJobIDsAndRunKeysPinned(t *testing.T) {
	rig, err := calib.NewRig(calib.Local())
	if err != nil {
		t.Fatal(err)
	}
	spec := func(i, workers int) shuffle.Spec {
		return shuffle.Spec{
			InputBucket: "data", InputKey: "in",
			OutputBucket: "work", OutputPrefix: fmt.Sprintf("sorted-%d/", i),
			Workers: workers,
		}
	}
	var got []string
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		stageSized(t, p, rig.Store)
		cl := halfDeadCluster(t, p, rig.CacheProv)
		runs := []func(i int) error{
			func(i int) error { _, err := rig.Shuffle.Sort(p, spec(i, 4)); return err },
			func(i int) error {
				_, err := rig.Shuffle.SortHierarchical(p, shuffle.HierSpec{Spec: spec(i, 4)})
				return err
			},
			func(i int) error {
				cs := shuffle.CacheSpec{Spec: spec(i, 3)}
				cs.Cluster = cl
				_, err := rig.CacheOp.Sort(p, cs)
				return err
			},
		}
		seen := map[string]bool{}
		for i, kind := range []int{0, 1, 2, 0, 2} {
			from := len(rig.Platform.Activations())
			if err := runs[kind](i); err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			var fns []string
			for _, a := range rig.Platform.Activations()[from:] {
				fns = append(fns, a.Function)
			}
			keys := newScratch(t, p, rig.Store, seen)
			if len(keys) == 0 {
				t.Errorf("job %d left no scratch key", i)
				return
			}
			got = append(got, jobTrace{jobIDOf(keys[0]), keys[0], waveNames(fns)}.String())
		}
	})
	if err := rig.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	want := []string{
		"shuffle-0001 shuffle-0001/m0000_r0000 shuffle/map,shuffle/reduce",
		"hiershuffle-0002 hiershuffle-0002-r1/m0000_r0000 shuffle/map,shuffle/repartition,shuffle/reduce",
		"cacheshuffle-0001 fallback/cacheshuffle-0001/m0000_r0001 cacheshuffle/map,cacheshuffle/reduce",
		"shuffle-0003 shuffle-0003/m0000_r0000 shuffle/map,shuffle/reduce",
		"cacheshuffle-0002 fallback/cacheshuffle-0002/m0000_r0000 cacheshuffle/map,cacheshuffle/reduce",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("jobs:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestConcurrentSubmitJobIDs pins the numbering when two jobs are
// submitted from concurrently running processes into one session: a
// store sort and a cache sort through the standing cluster (node 0
// down, as above), which mint their IDs at the same virtual instant
// from one rig's counters. It records each job's ID and first key.
func TestConcurrentSubmitJobIDs(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{WarmCacheNodes: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rig := sess.Rig()
	strategies := []core.ExchangeStrategy{core.ObjectStorageExchange{}, rig.CacheStrategy(true)}
	var ids []string
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		stageSized(t, p, rig.Store)
		rig.Exec.StandingCache.KillNode(0)
		wg := des.NewWaitGroup(rig.Sim)
		for i, st := range strategies {
			i, st := i, st
			wg.Add(1)
			p.Spawn(fmt.Sprintf("job%d", i), func(jp *des.Proc) {
				defer wg.Done()
				w := core.NewWorkflow(fmt.Sprintf("job%d", i))
				if err := w.Add(&core.SortStage{
					Strategy: st,
					Params:   rig.SortParams("data", "in", "work", fmt.Sprintf("sorted-%d/", i), 3),
				}); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				if _, err := sess.SubmitIn(jp, session.WorkflowJob(w, nil)); err != nil {
					t.Errorf("SubmitIn %d: %v", i, err)
				}
			})
		}
		wg.Wait(p)
		// The keys come sorted, so each job's first is the one kept.
		for _, k := range newScratch(t, p, rig.Store, map[string]bool{}) {
			if id := jobIDOf(k); len(ids) == 0 || !strings.HasPrefix(ids[len(ids)-1], id+" ") {
				ids = append(ids, id+" "+k)
			}
		}
	})
	if err := rig.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := strings.Join(ids, ", "), "cacheshuffle-0001 fallback/cacheshuffle-0001/m0000_r0001, shuffle-0001 shuffle-0001/m0000_r0000"; got != want {
		t.Errorf("job IDs = %q, want %q", got, want)
	}
}
