package core

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
)

func TestStageNames(t *testing.T) {
	w := NewWorkflow("wf")
	noop := func(name string) *FuncStage {
		return &FuncStage{StageName: name, Fn: func(*StageContext) error { return nil }}
	}
	_ = w.Add(noop("a"))
	_ = w.Add(noop("b"), "a")
	got := w.StageNames()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("StageNames = %v", got)
	}
}

func TestDefaultStageNames(t *testing.T) {
	if got := (&SortStage{}).Name(); got != "sort" {
		t.Errorf("SortStage default name = %q", got)
	}
	if got := (&SortStage{StageName: "mysort"}).Name(); got != "mysort" {
		t.Errorf("SortStage custom name = %q", got)
	}
	if got := (&MapStage{}).Name(); got != "map" {
		t.Errorf("MapStage default name = %q", got)
	}
	if got := (&MapStage{StageName: "enc"}).Name(); got != "enc" {
		t.Errorf("MapStage custom name = %q", got)
	}
}

func TestSplitSized(t *testing.T) {
	parts := splitSized(10, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	var total int64
	for _, p := range parts {
		if _, real := p.Bytes(); real {
			t.Fatal("splitSized produced real payload")
		}
		total += p.Size()
	}
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	if parts[0].Size() != 4 || parts[1].Size() != 3 || parts[2].Size() != 3 {
		t.Fatalf("split = %d/%d/%d, want 4/3/3",
			parts[0].Size(), parts[1].Size(), parts[2].Size())
	}
}

func TestConcatOfSplitSizedPreservesSize(t *testing.T) {
	parts := splitSized(1<<20, 7)
	if got := payload.Concat(parts...).Size(); got != 1<<20 {
		t.Fatalf("Concat size = %d", got)
	}
}
