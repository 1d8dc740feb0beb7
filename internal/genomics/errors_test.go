package genomics

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
)

func TestRegisterFunctionsTwiceFails(t *testing.T) {
	rig := newRig(t) // newRig already registered the functions
	if err := RegisterFunctions(rig.Platform); err == nil {
		t.Fatal("double registration accepted")
	}
}

func TestBuildPipelineRequiresStrategy(t *testing.T) {
	if _, err := BuildPipeline(PipelineConfig{}); err == nil {
		t.Fatal("nil strategy accepted")
	}
}

func TestBuildPipelineDefaults(t *testing.T) {
	w, err := BuildPipeline(PipelineConfig{
		InputBucket: "data", InputKey: "in",
		WorkBucket: "work",
		Strategy:   core.ObjectStorageExchange{},
	})
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	if w.Name() != "methcomp" {
		t.Errorf("default name = %q", w.Name())
	}
	names := w.StageNames()
	if len(names) != 2 || names[0] != "sort" || names[1] != "encode" {
		t.Errorf("stages = %v", names)
	}
}

func TestEncodeHandlerRejectsBadInput(t *testing.T) {
	rig := newRig(t)
	var err error
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		_, err = rig.Platform.Invoke(p, EncodeFn, "not a task", faas.InvokeOptions{})
	})
	if simErr := rig.Sim.Run(); simErr != nil {
		t.Fatalf("sim: %v", simErr)
	}
	if err == nil {
		t.Fatal("bad input accepted")
	}
}

func TestDecodeHandlerRejectsBadInput(t *testing.T) {
	rig := newRig(t)
	var err error
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		_, err = rig.Platform.Invoke(p, DecodeFn, 42, faas.InvokeOptions{})
	})
	if simErr := rig.Sim.Run(); simErr != nil {
		t.Fatalf("sim: %v", simErr)
	}
	if err == nil {
		t.Fatal("bad input accepted")
	}
}
