package genomics

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/methcomp"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

func newRig(t *testing.T) *calib.Rig {
	t.Helper()
	rig, err := calib.NewRig(calib.Local())
	if err != nil {
		t.Fatalf("rig: %v", err)
	}
	if err := RegisterFunctions(rig.Platform); err != nil {
		t.Fatalf("register: %v", err)
	}
	return rig
}

func stageInput(t *testing.T, rig *calib.Rig, recs []bed.Record) {
	t.Helper()
	rig.Sim.Spawn("setup", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		for _, b := range []string{"data", "work"} {
			if err := c.CreateBucket(p, b); err != nil {
				t.Errorf("bucket: %v", err)
			}
		}
		if err := c.Put(p, "data", "sample.bed", payload.RealNoCopy(bed.Marshal(recs))); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("setup: %v", err)
	}
}

func pipelineConfig(rig *calib.Rig, strategy core.ExchangeStrategy, workers int) PipelineConfig {
	sort := rig.SortParams("data", "sample.bed", "work", "sorted/", workers)
	return PipelineConfig{
		InputBucket: "data", InputKey: "sample.bed",
		WorkBucket:  "work",
		Strategy:    strategy,
		Sort:        sort,
		EncodeBps:   rig.Profile.EncodeBps,
		EncodeRatio: rig.Profile.EncodeRatio,
	}
}

// runPipeline executes the workflow and returns its report.
func runPipeline(t *testing.T, rig *calib.Rig, cfg PipelineConfig) *core.RunReport {
	t.Helper()
	w, err := BuildPipeline(cfg)
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	var rep *core.RunReport
	var runErr error
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		rep, runErr = rig.Exec.Run(p, w)
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if runErr != nil {
		t.Fatalf("pipeline: %v", runErr)
	}
	return rep
}

// verifyCompressed decodes every compressed part and checks the
// concatenation equals the sorted input records.
func verifyCompressed(t *testing.T, rig *calib.Rig, parts int, want []bed.Record) {
	t.Helper()
	sorted := make([]bed.Record, len(want))
	copy(sorted, want)
	bed.Sort(sorted)
	rig.Sim.Spawn("verify", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		keys, err := c.ListAll(p, "work", "compressed/")
		if err != nil {
			t.Errorf("list: %v", err)
			return
		}
		if len(keys) != parts {
			t.Errorf("compressed parts = %d, want %d", len(keys), parts)
			return
		}
		var all []bed.Record
		for _, k := range keys {
			pl, err := c.Get(p, "work", k)
			if err != nil {
				t.Errorf("get %s: %v", k, err)
				return
			}
			raw, ok := pl.Bytes()
			if !ok {
				t.Errorf("part %s not real", k)
				return
			}
			recs, err := methcomp.Decompress(raw)
			if err != nil {
				t.Errorf("decompress %s: %v", k, err)
				return
			}
			all = append(all, recs...)
		}
		if len(all) != len(sorted) {
			t.Errorf("decoded %d records, want %d", len(all), len(sorted))
			return
		}
		for i := range sorted {
			if all[i] != sorted[i] {
				t.Errorf("record %d: %+v != %+v", i, all[i], sorted[i])
				return
			}
		}
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("verify sim: %v", err)
	}
}

func TestPipelineServerlessEndToEnd(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 4000, Seed: 1, Sorted: false})
	stageInput(t, rig, recs)
	rep := runPipeline(t, rig, pipelineConfig(rig, core.ObjectStorageExchange{}, 4))
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(rep.Stages))
	}
	if _, ok := rep.Stage("sort"); !ok {
		t.Fatal("no sort stage")
	}
	if _, ok := rep.Stage("encode"); !ok {
		t.Fatal("no encode stage")
	}
	verifyCompressed(t, rig, 4, recs)
}

func TestPipelineVMEndToEnd(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 4000, Seed: 2, Sorted: false})
	stageInput(t, rig, recs)
	rep := runPipeline(t, rig, pipelineConfig(rig, rig.VMStrategy(), 4))
	sr, _ := rep.Stage("sort")
	if sr.Cost.VM <= 0 {
		t.Fatal("VM pipeline charged no VM cost")
	}
	verifyCompressed(t, rig, 4, recs)
}

func TestBothStrategiesProduceIdenticalOutput(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 3, Sorted: false})
	decode := func(strategy func(*calib.Rig) core.ExchangeStrategy) []bed.Record {
		rig := newRig(t)
		stageInput(t, rig, recs)
		runPipeline(t, rig, pipelineConfig(rig, strategy(rig), 3))
		var all []bed.Record
		rig.Sim.Spawn("collect", func(p *des.Proc) {
			c := objectstore.NewClient(rig.Store)
			keys, err := c.ListAll(p, "work", "compressed/")
			if err != nil {
				t.Errorf("list: %v", err)
				return
			}
			for _, k := range keys {
				pl, _ := c.Get(p, "work", k)
				raw, _ := pl.Bytes()
				part, err := methcomp.Decompress(raw)
				if err != nil {
					t.Errorf("decompress: %v", err)
					return
				}
				all = append(all, part...)
			}
		})
		if err := rig.Sim.Run(); err != nil {
			t.Fatalf("collect: %v", err)
		}
		return all
	}
	a := decode(func(*calib.Rig) core.ExchangeStrategy { return core.ObjectStorageExchange{} })
	b := decode(func(r *calib.Rig) core.ExchangeStrategy { return r.VMStrategy() })
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("outputs differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between strategies", i)
		}
	}
}

func TestPipelineSizedMode(t *testing.T) {
	rig := newRig(t)
	rig.Sim.Spawn("setup", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		_ = c.CreateBucket(p, "data")
		_ = c.CreateBucket(p, "work")
		_ = c.Put(p, "data", "sample.bed", payload.Sized(3500e6))
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	rep := runPipeline(t, rig, pipelineConfig(rig, core.ObjectStorageExchange{}, 8))
	if rep.Latency() <= 0 {
		t.Fatal("no latency measured")
	}
	// Compressed outputs must be ~EncodeRatio smaller.
	rig.Sim.Spawn("check", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		keys, err := c.ListAll(p, "work", "compressed/")
		if err != nil || len(keys) != 8 {
			t.Errorf("compressed keys = %v, %v", keys, err)
			return
		}
		var total int64
		for _, k := range keys {
			obj, err := c.Head(p, "work", k)
			if err != nil {
				t.Errorf("head: %v", err)
				return
			}
			total += obj.Size
		}
		want := int64(3500e6 / rig.Profile.EncodeRatio)
		if total < want/2 || total > want*2 {
			t.Errorf("compressed total = %d, want ~%d", total, want)
		}
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestDecodeFunctionRoundtrip(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 1000, Seed: 4, Sorted: true})
	comp, err := methcomp.Compress(recs)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		_ = c.CreateBucket(p, "work")
		_ = c.Put(p, "work", "in.mcz", payload.RealNoCopy(comp))
		out, err := rig.Platform.Invoke(p, DecodeFn, &Task{
			Bucket: "work", Key: "in.mcz",
			OutBucket: "work", OutKey: "out.bed",
			Bps: 100e6,
		}, faas.InvokeOptions{})
		if err != nil {
			t.Errorf("decode invoke: %v", err)
			return
		}
		if out != "out.bed" {
			t.Errorf("decode returned %v", out)
		}
		pl, err := c.Get(p, "work", "out.bed")
		if err != nil {
			t.Errorf("get decoded: %v", err)
			return
		}
		raw, _ := pl.Bytes()
		back, err := bed.Unmarshal(raw)
		if err != nil {
			t.Errorf("parse decoded: %v", err)
			return
		}
		if len(back) != len(recs) {
			t.Errorf("decoded %d records, want %d", len(back), len(recs))
		}
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestBuildPipelineValidation(t *testing.T) {
	if _, err := BuildPipeline(PipelineConfig{}); err == nil {
		t.Fatal("pipeline without strategy accepted")
	}
}
