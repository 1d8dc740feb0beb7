package core

import (
	"strings"
	"testing"
)

func TestDescribeShowsTopologyAndStrategy(t *testing.T) {
	w := NewWorkflow("methcomp")
	if err := w.Add(&SortStage{Strategy: ObjectStorageExchange{}, Params: SortParams{}}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := w.Add(&MapStage{StageName: "encode", Function: "f",
		InputsFromState: "sort.keys", BuildInput: func(string, int) any { return nil }}, "sort"); err != nil {
		t.Fatalf("Add: %v", err)
	}
	out := w.Describe()
	for _, want := range []string{
		`workflow "methcomp"`,
		"sort [exchange: object-storage]",
		"encode  <- sort",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
}
