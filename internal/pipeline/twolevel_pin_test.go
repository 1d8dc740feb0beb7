package pipeline

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
)

// TestTwoLevelReachesTheSkeleton pins how a document's exchange reaches
// the shuffle: a stage's "hierarchical": true must run the two-level
// sort, not a one-level one that sorts just as well. The detail names
// the two-level shape, and every scratch key the stage leaves carries
// the two-level job prefix. A cache stage beside it runs through the
// session's standing cluster with node 0 down, so the slabs sharded
// there fall back to the store, where their keys carry the cache job
// prefix.
func TestTwoLevelReachesTheSkeleton(t *testing.T) {
	const doc = `{
	  "version": 2,
	  "name": "routing",
	  "input": {"bucket": "data", "key": "sample.bed"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "twolevel", "type": "shuffle", "strategy": "object-storage", "workers": 8, "hierarchical": true, "groups": 4},
	    {"name": "cached", "type": "shuffle", "strategy": "cache", "workers": 4, "dependsOn": ["twolevel"]}
	  ]
	}`
	d, err := Load([]byte(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sess, err := session.Open(calib.Local(), session.Options{WarmCacheNodes: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rig := sess.Rig()
	rig.Exec.StandingCache.KillNode(0)
	rep, err := sess.Submit(d.Job(JobConfig{Records: 2000}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sr, ok := rep.Stage("twolevel")
	if want := "two-level shuffle via object storage: 8 workers in 4 groups"; !ok || !strings.HasPrefix(sr.Detail, want) {
		t.Errorf("two-level stage detail = %q, want it to start %q", sr.Detail, want)
	}

	var keys []string
	var listErr error
	rig.Sim.Spawn("list", func(p *des.Proc) {
		keys, listErr = objectstore.NewClient(rig.Store).ListAll(p, "work", "")
	})
	if err := rig.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if listErr != nil {
		t.Fatalf("list: %v", listErr)
	}
	var hier, cache int
	for _, k := range keys {
		switch {
		case strings.HasPrefix(k, "twolevel/"), strings.HasPrefix(k, "cached/"):
			// the stages' sorted output
		case strings.HasPrefix(k, "hiershuffle-"):
			hier++
		case strings.HasPrefix(k, "fallback/cacheshuffle-"):
			cache++
		default:
			t.Errorf("scratch key %q is under neither the two-level nor the cache job prefix", k)
		}
	}
	if hier == 0 || cache == 0 {
		t.Errorf("scratch keys: %d under hiershuffle-, %d under fallback/cacheshuffle-; want some of each", hier, cache)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
