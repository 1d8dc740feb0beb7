package pipeline

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

func TestLoadRejectsExtendedFields(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"hierarchical on vm", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"vm","workers":4,"hierarchical":true}]}`},
		{"hierarchical on cache", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"cache","hierarchical":true}]}`},
		{"groups without hierarchical", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","groups":2}]}`},
		{"groups not dividing workers", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","workers":8,"hierarchical":true,"groups":3}]}`},
		{"cacheNodes on object-storage", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","cacheNodes":2}]}`},
		{"negative groups", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","workers":8,"hierarchical":true,"groups":-4}]}`},
		{"negative cacheNodes on object-storage", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","cacheNodes":-2}]}`},
		{"negative cacheNodes on cache", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"cache","cacheNodes":-2}]}`},
		{"negative retries", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","maxRetries":-1}]}`},
	}
	for _, c := range cases {
		if _, err := Load([]byte(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// runDoc builds and executes a single-shuffle document over real data,
// returning the rig for post-run inspection.
func runDoc(t *testing.T, doc string) *calib.Rig {
	t.Helper()
	rig, err := calib.NewRig(calib.Local())
	if err != nil {
		t.Fatalf("rig: %v", err)
	}
	d, err := Load([]byte(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	w, err := d.Build(BuildOptions{Rig: rig})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	recs := bed.Generate(bed.GenConfig{Records: 1500, Seed: 3})
	var runErr error
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		_ = c.CreateBucket(p, "data")
		_ = c.CreateBucket(p, "work")
		_ = c.Put(p, "data", "sample.bed", payload.RealNoCopy(bed.Marshal(recs)))
		_, runErr = rig.Exec.Run(p, w)
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return rig
}

func TestCacheStrategyFromJSON(t *testing.T) {
	rig := runDoc(t, `{
	  "name": "cache-pipe",
	  "input": {"bucket": "data", "key": "sample.bed"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "sort", "type": "shuffle", "strategy": "cache", "workers": 4, "cacheNodes": 2}
	  ]
	}`)
	clusters := rig.CacheProv.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(clusters))
	}
	if clusters[0].Nodes() != 2 {
		t.Fatalf("nodes = %d, want 2", clusters[0].Nodes())
	}
	if !clusters[0].Stopped() {
		t.Error("cluster left running")
	}
}

func TestWarmCacheStrategyFromJSON(t *testing.T) {
	rig := runDoc(t, `{
	  "name": "warm-pipe",
	  "input": {"bucket": "data", "key": "sample.bed"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "sort", "type": "shuffle", "strategy": "cache-warm", "workers": 4}
	  ]
	}`)
	if len(rig.CacheProv.Clusters()) != 1 {
		t.Fatal("no cluster provisioned")
	}
}

func TestHierarchicalShuffleFromJSON(t *testing.T) {
	rig := runDoc(t, `{
	  "name": "hier-pipe",
	  "input": {"bucket": "data", "key": "sample.bed"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "sort", "type": "shuffle", "strategy": "object-storage",
	     "workers": 8, "hierarchical": true, "groups": 4}
	  ]
	}`)
	// Verify the sorted output is correct and complete.
	var all []bed.Record
	rig.Sim.Spawn("verify", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		keys, err := c.ListAll(p, "work", "sort/")
		if err != nil {
			t.Errorf("list: %v", err)
			return
		}
		if len(keys) != 8 {
			t.Errorf("parts = %d, want 8", len(keys))
		}
		for _, k := range keys {
			pl, err := c.Get(p, "work", k)
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			raw, _ := pl.Bytes()
			part, err := bed.Unmarshal(raw)
			if err != nil {
				t.Errorf("parse: %v", err)
				return
			}
			all = append(all, part...)
		}
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("verify sim: %v", err)
	}
	if len(all) != 1500 || !bed.IsSorted(all) {
		t.Fatalf("hierarchical output: %d records, sorted=%v", len(all), bed.IsSorted(all))
	}
}

func TestFaultPolicyFromJSON(t *testing.T) {
	// Retries declared in JSON survive the round-trip to the platform:
	// inject failures and watch the retried shuffle succeed.
	profile := calib.Local()
	profile.Faas.FailureRate = 0.1
	rig, err := calib.NewRig(profile)
	if err != nil {
		t.Fatalf("rig: %v", err)
	}
	d, err := Load([]byte(`{
	  "name": "retry-pipe",
	  "input": {"bucket": "data", "key": "sample.bed"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "sort", "type": "shuffle", "strategy": "object-storage",
	     "workers": 8, "maxRetries": 10, "speculate": true}
	  ]
	}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	w, err := d.Build(BuildOptions{Rig: rig})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	recs := bed.Generate(bed.GenConfig{Records: 1500, Seed: 5})
	var runErr error
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		_ = c.CreateBucket(p, "data")
		_ = c.CreateBucket(p, "work")
		_ = c.Put(p, "data", "sample.bed", payload.RealNoCopy(bed.Marshal(recs)))
		_, runErr = rig.Exec.Run(p, w)
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if runErr != nil {
		t.Fatalf("run with injected failures: %v", runErr)
	}
	if rig.Platform.Meter().Retries == 0 {
		t.Error("no retries metered; JSON policy not applied")
	}
}
