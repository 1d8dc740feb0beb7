package core

import (
	"errors"
	"fmt"

	"github.com/faaspipe/faaspipe/internal/faas"
)

// SortStage sorts a dataset using a pluggable data-exchange strategy
// (the paper's experimental variable). Its output keys are published
// to run state under "<name>.keys".
type SortStage struct {
	// StageName identifies the stage (default "sort").
	StageName string
	// Strategy is the data-exchange strategy to use: a concrete one, or
	// an *AutoExchange for the cost-based planner.
	Strategy ExchangeStrategy
	// Params configure the sort job.
	Params SortParams
}

var _ Stage = (*SortStage)(nil)

// Name implements Stage.
func (s *SortStage) Name() string {
	if s.StageName == "" {
		return "sort"
	}
	return s.StageName
}

// exchangeLabel is the Describe annotation: a concrete strategy's
// name, "auto" for a planner-backed stage, and "auto → <picked>" once
// a run has committed the planner to a family.
func (s *SortStage) exchangeLabel() string {
	switch st := s.Strategy.(type) {
	case nil:
		return "none"
	case *AutoExchange:
		if st.LastDecision != nil {
			return fmt.Sprintf("auto → %s", st.LastDecision.Chosen.Strategy)
		}
	}
	return s.Strategy.Name()
}

// Run implements Stage.
func (s *SortStage) Run(ctx *StageContext) error {
	if s.Strategy == nil {
		return fmt.Errorf("core: sort stage %q has no exchange strategy", s.Name())
	}
	outcome, err := s.Strategy.RunSort(ctx, s.Params)
	if err != nil {
		return err
	}
	ctx.State.Set(s.Name()+".keys", outcome.OutputKeys)
	ctx.Outcome = &outcome.StageOutcome
	return nil
}

// MapStage fans one function invocation out per input object key. It
// is the engine's embarrassingly-parallel building block (the
// pipeline's encode stage).
type MapStage struct {
	// StageName identifies the stage.
	StageName string
	// Function is the registered platform function to invoke.
	Function string
	// InputsFromState names the run-state key holding the input
	// object keys ([]string), typically "<sort stage>.keys".
	InputsFromState string
	// StaticInputs is used instead when InputsFromState is empty.
	StaticInputs []string
	// BuildInput constructs the function input for one object key.
	BuildInput func(objKey string, index int) any
	// MemoryMB overrides the platform default function memory.
	MemoryMB int
}

var _ Stage = (*MapStage)(nil)

// Name implements Stage.
func (m *MapStage) Name() string {
	if m.StageName == "" {
		return "map"
	}
	return m.StageName
}

// Run implements Stage.
func (m *MapStage) Run(ctx *StageContext) error {
	if m.Function == "" {
		return errors.New("core: map stage has no function")
	}
	if m.BuildInput == nil {
		return errors.New("core: map stage has no BuildInput")
	}
	keys := m.StaticInputs
	if m.InputsFromState != "" {
		var err error
		keys, err = ctx.State.Keys(m.InputsFromState)
		if err != nil {
			return err
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("core: map stage %q has no inputs", m.Name())
	}
	inputs := make([]any, len(keys))
	for i, k := range keys {
		inputs[i] = m.BuildInput(k, i)
	}
	outs, err := ctx.Exec.Platform.MapSync(ctx.Proc, m.Function, inputs,
		faas.InvokeOptions{MemoryMB: m.MemoryMB})
	if err != nil {
		return err
	}
	outKeys := make([]string, 0, len(outs))
	for _, o := range outs {
		if s, ok := o.(string); ok {
			outKeys = append(outKeys, s)
		}
	}
	if len(outKeys) == len(outs) {
		ctx.State.Set(m.Name()+".keys", outKeys)
	}
	return nil
}

// FuncStage adapts a plain function into a Stage, for orchestrator-
// side steps (dataset staging, validation).
type FuncStage struct {
	StageName string
	Fn        func(ctx *StageContext) error
}

var _ Stage = (*FuncStage)(nil)

// Name implements Stage.
func (f *FuncStage) Name() string { return f.StageName }

// Run implements Stage.
func (f *FuncStage) Run(ctx *StageContext) error {
	if f.Fn == nil {
		return fmt.Errorf("core: func stage %q has nil fn", f.StageName)
	}
	return f.Fn(ctx)
}
