package pipeline

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

const validDoc = `{
  "name": "methcomp",
  "input": {"bucket": "data", "key": "sample.bed"},
  "workBucket": "work",
  "stages": [
    {"name": "sort", "type": "shuffle", "strategy": "object-storage", "workers": 4},
    {"name": "encode", "type": "map", "function": "methcomp/encode", "dependsOn": ["sort"]}
  ]
}`

func TestLoadValid(t *testing.T) {
	d, err := Load([]byte(validDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if d.Name != "methcomp" || len(d.Stages) != 2 {
		t.Fatalf("doc = %+v", d)
	}
}

func TestLoadRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"garbage", `{`},
		{"unknown field", `{"name":"x","workBucket":"w","typo":1,"stages":[{"name":"s","type":"shuffle","strategy":"vm","workers":2}]}`},
		{"no name", `{"workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"vm","workers":2}]}`},
		{"no stages", `{"name":"x","workBucket":"w","stages":[]}`},
		{"no work bucket", `{"name":"x","stages":[{"name":"s","type":"shuffle","strategy":"vm","workers":2}]}`},
		{"bad type", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"banana"}]}`},
		{"shuffle no strategy", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle"}]}`},
		{"bad strategy", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"floppy"}]}`},
		{"vm no workers", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"vm"}]}`},
		{"map no function", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"map","dependsOn":["s2"]}]}`},
		{"map no inputs", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"map","function":"f"}]}`},
		{"dup stage", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"vm","workers":2},{"name":"s","type":"shuffle","strategy":"vm","workers":2}]}`},
		{"unknown dep", `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"vm","workers":2,"dependsOn":["ghost"]}]}`},
	}
	for _, c := range cases {
		if _, err := Load([]byte(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestBuildAndRunFromJSON(t *testing.T) {
	rig, err := calib.NewRig(calib.Local())
	if err != nil {
		t.Fatalf("rig: %v", err)
	}
	if err := genomics.RegisterFunctions(rig.Platform); err != nil {
		t.Fatalf("register: %v", err)
	}
	d, err := Load([]byte(validDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	w, err := d.Build(BuildOptions{
		Rig: rig,
		MapInputs: map[string]MapInputBuilder{
			"encode": genomics.Inputs("work", "work", "compressed/part-%04d.mcz", rig.Profile.EncodeBps, rig.Profile.EncodeRatio),
		},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 1, Sorted: false})
	var rep *core.RunReport
	var runErr error
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		_ = c.CreateBucket(p, "data")
		_ = c.CreateBucket(p, "work")
		_ = c.Put(p, "data", "sample.bed", payload.RealNoCopy(bed.Marshal(recs)))
		rep, runErr = rig.Exec.Run(p, w)
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
	if sr, ok := rep.Stage("encode"); !ok || sr.Faas.Invocations != 4 {
		t.Fatalf("encode stage = %+v", sr)
	}
}

func TestBuildRequiresInputBuilder(t *testing.T) {
	rig, err := calib.NewRig(calib.Local())
	if err != nil {
		t.Fatalf("rig: %v", err)
	}
	d, err := Load([]byte(validDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := d.Build(BuildOptions{Rig: rig}); err == nil ||
		!strings.Contains(err.Error(), "input builder") {
		t.Fatalf("Build without builder = %v", err)
	}
}

func TestBuildRequiresRig(t *testing.T) {
	d, err := Load([]byte(validDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := d.Build(BuildOptions{}); err == nil {
		t.Fatal("Build without rig accepted")
	}
}

func TestVMStrategyFromJSON(t *testing.T) {
	doc := `{
	  "name": "vm-pipe",
	  "input": {"bucket": "data", "key": "sample.bed"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "sort", "type": "shuffle", "strategy": "vm", "workers": 2, "instanceType": "bx2-4x16"}
	  ]
	}`
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
	recs := bed.Generate(bed.GenConfig{Records: 500, Seed: 2})
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
	if got := len(rig.Prov.Instances()); got != 1 {
		t.Fatalf("instances = %d, want 1", got)
	}
	if rig.Prov.Instances()[0].Type().Name != "bx2-4x16" {
		t.Fatalf("instance type = %s", rig.Prov.Instances()[0].Type().Name)
	}
}
