package genomics

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
)

// TestVerifyJoinsThePartsInOrder re-verifies an honest roundtrip's
// decoded parts as given, with one left out at either end and with two
// swapped: only the parts in order, joined, are the sorted input.
func TestVerifyJoinsThePartsInOrder(t *testing.T) {
	rig := newRig(t)
	stageInput(t, rig, bed.Generate(bed.GenConfig{Records: 1000, Seed: 74}))
	cfg := pipelineConfig(rig, core.ObjectStorageExchange{}, 4)
	if _, err := runRoundtrip(t, rig, cfg); err != nil {
		t.Fatalf("honest run: %v", err)
	}
	parts := []string{"decoded/part-0000.bed", "decoded/part-0001.bed", "decoded/part-0002.bed", "decoded/part-0003.bed"}
	for _, c := range []struct {
		name string
		keys []string
		ok   bool
	}{
		{"in order", parts, true},
		{"last missing", parts[:3], false},
		{"first missing", parts[1:], false},
		{"two swapped", []string{parts[1], parts[0], parts[2], parts[3]}, false},
	} {
		wf := core.NewWorkflow("verify")
		if err := wf.Add(&core.FuncStage{StageName: "verify", Fn: func(ctx *core.StageContext) error {
			ctx.State.Set("decode.keys", c.keys)
			return verifyRoundtrip(ctx, cfg)
		}}); err != nil {
			t.Fatalf("Add: %v", err)
		}
		var err error
		rig.Sim.Spawn("driver", func(p *des.Proc) {
			_, err = rig.Exec.Run(p, wf)
		})
		if simErr := rig.Sim.Run(); simErr != nil {
			t.Fatalf("%s: sim: %v", c.name, simErr)
		}
		if c.ok && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "genomics: verify")) {
			t.Errorf("%s: err = %v, want a verify failure", c.name, err)
		}
	}
}
