package core

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

func TestObjectStorageExchangeHierarchical(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 81, Sorted: false})
	params := stageData(t, r, recs)
	params.Workers = 8
	params.Hierarchical = true
	params.Groups = 4

	w := NewWorkflow("hier")
	if err := w.Add(&SortStage{Strategy: ObjectStorageExchange{}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sr, _ := rep.Stage("sort")
	if sr.Err != nil {
		t.Fatalf("sort err: %v", sr.Err)
	}
}

func TestObjectStorageExchangeNoOperator(t *testing.T) {
	r := newRig(t)
	r.exec.Shuffle = nil
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 82, Sorted: false})
	params := stageData(t, r, recs)
	w := NewWorkflow("wf")
	if err := w.Add(&SortStage{Strategy: ObjectStorageExchange{}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := r.run(t, w); err == nil || !strings.Contains(err.Error(), "no shuffle operator") {
		t.Fatalf("err = %v", err)
	}
}

func TestVMExchangeDatasetExceedsMemory(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 83, Sorted: false})
	params := stageData(t, r, recs)
	// Claim a tiny instance type cannot hold a fake huge dataset by
	// staging a sized object bigger than the smallest catalog entry.
	params.InputKey = "huge"
	r.sim.Spawn("stage-huge", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		_ = c.Put(p, "data", "huge", payload.Sized(9<<30)) // 9 GB > bx2-2x8's 8 GB
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("stage sim: %v", err)
	}
	w := NewWorkflow("wf")
	strategy := &VMExchange{InstanceType: "bx2-2x8", SortBps: 100e6}
	if err := w.Add(&SortStage{Strategy: strategy, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	_, err := r.run(t, w)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized dataset err = %v", err)
	}
}

func TestVMExchangeNeedsExplicitWorkers(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 84, Sorted: false})
	params := stageData(t, r, recs)
	params.Workers = 0
	w := NewWorkflow("wf")
	if err := w.Add(&SortStage{Strategy: &VMExchange{InstanceType: "bx2-8x32"}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := r.run(t, w); err == nil || !strings.Contains(err.Error(), "explicit Workers") {
		t.Fatalf("err = %v", err)
	}
}
