// Package pipeline implements the declarative workflow interface the
// paper adds to the engine (§2.4): workflows defined in JSON
// configuration files, validated and bound to executable stages.
//
// Two schema versions are understood. Version 1 (the original; the
// default when "version" is absent) requires every shuffle stage to
// name a concrete exchange strategy. Version 2 ("version": 2) makes
// the interface fully declarative: a shuffle may set "strategy":
// "auto" — or omit the strategy entirely — to hand the choice to the
// cost-based planner, and may state what to optimize with "objective"
// ("min-time", "min-cost", or "min-cost-within" with a "deadline").
// Version-1 documents load byte-for-byte unchanged; v2 fields in a v1
// document fail loudly with the migration spelled out.
package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
)

// Doc is the top-level JSON workflow document.
type Doc struct {
	// Version is the schema version: 0 or 1 mean the original schema,
	// 2 enables auto strategies and objectives.
	Version int `json:"version,omitempty"`
	// Name labels the workflow.
	Name string `json:"name"`
	// Input locates the dataset the first stage consumes.
	Input ObjectRef `json:"input"`
	// WorkBucket holds intermediates and outputs.
	WorkBucket string `json:"workBucket"`
	// Stages is the DAG, in any order (dependencies resolve by name).
	Stages []StageDoc `json:"stages"`
}

// v2 reports whether the document opted into the version-2 schema.
func (d *Doc) v2() bool { return d.Version >= 2 }

// ObjectRef names one object.
type ObjectRef struct {
	Bucket string `json:"bucket"`
	Key    string `json:"key"`
}

// StageDoc is one stage definition.
type StageDoc struct {
	// Name is the unique stage name.
	Name string `json:"name"`
	// Type is "shuffle" or "map".
	Type string `json:"type"`
	// Strategy (shuffle only): "object-storage", "vm", "cache",
	// "cache-warm", or (schema v2) "auto" — the cost-based planner
	// picks the family and its configuration. In v2 documents an
	// omitted strategy means auto.
	Strategy string `json:"strategy,omitempty"`
	// Objective (shuffle/auto, schema v2 only) is what the planner
	// optimizes: "min-time" (default), "min-cost", or
	// "min-cost-within" (cheapest plan meeting Deadline).
	Objective string `json:"objective,omitempty"`
	// Deadline (schema v2 only) is the latency budget for the
	// "min-cost-within" objective, as a Go duration ("90s", "2m").
	Deadline string `json:"deadline,omitempty"`
	// Workers (shuffle only): parallelism; 0 = planner.
	Workers int `json:"workers,omitempty"`
	// Hierarchical (shuffle/object-storage only) switches to the
	// two-level exchange.
	Hierarchical bool `json:"hierarchical,omitempty"`
	// Groups (shuffle/object-storage only): two-level group count
	// (0 = auto); requires hierarchical.
	Groups int `json:"groups,omitempty"`
	// InstanceType (shuffle/vm only) overrides the profile's VM type.
	InstanceType string `json:"instanceType,omitempty"`
	// CacheNodes (shuffle/cache only) fixes the cluster size (0 = auto).
	CacheNodes int `json:"cacheNodes,omitempty"`
	// MaxRetries (shuffle only) re-attempts invocations lost to
	// transient platform failures.
	MaxRetries int `json:"maxRetries,omitempty"`
	// Speculate (shuffle only) enables straggler speculation.
	Speculate bool `json:"speculate,omitempty"`
	// Function (map only): registered platform function name.
	Function string `json:"function,omitempty"`
	// InputsFrom (map only): run-state key holding input object keys;
	// defaults to "<first dependency>.keys".
	InputsFrom string `json:"inputsFrom,omitempty"`
	// MemoryMB overrides function memory.
	MemoryMB int `json:"memoryMB,omitempty"`
	// DependsOn lists upstream stage names.
	DependsOn []string `json:"dependsOn,omitempty"`
}

// Load parses and validates a JSON workflow document. Unknown fields
// are rejected so typos fail loudly.
func Load(data []byte) (*Doc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Doc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("pipeline: parse: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// LoadFile reads and parses a JSON workflow file.
func LoadFile(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return Load(data)
}

// autoStrategy reports whether the stage hands the exchange choice to
// the planner under the v2 schema ("auto" or omitted strategy).
func (s StageDoc) autoStrategy() bool {
	return s.Type == "shuffle" && (s.Strategy == "auto" || s.Strategy == "")
}

// objective parses the stage's declared planner objective.
func (s StageDoc) objective() (autoplan.Objective, error) {
	switch s.Objective {
	case "", "min-time":
		return autoplan.Objective{Goal: autoplan.MinTime}, nil
	case "min-cost":
		return autoplan.Objective{Goal: autoplan.MinCost}, nil
	case "min-cost-within":
		bound, err := time.ParseDuration(s.Deadline)
		if err != nil {
			return autoplan.Objective{}, fmt.Errorf(
				"pipeline: stage %q: bad deadline %q: %v", s.Name, s.Deadline, err)
		}
		if bound <= 0 {
			return autoplan.Objective{}, fmt.Errorf(
				"pipeline: stage %q: deadline %q is not positive", s.Name, s.Deadline)
		}
		return autoplan.Objective{Goal: autoplan.MinCostWithin, TimeBound: bound}, nil
	default:
		return autoplan.Objective{}, fmt.Errorf(
			"pipeline: stage %q: unknown objective %q (want min-time, min-cost, or min-cost-within)",
			s.Name, s.Objective)
	}
}

// Validate checks structural constraints (full DAG validation happens
// again at Build via core.Workflow.Validate). Validation is
// strategy-aware: what a field requires depends on which exchange the
// stage declared, and v2-only fields in a v1 document name the
// migration instead of failing obscurely downstream.
func (d *Doc) Validate() error {
	if d.Name == "" {
		return errors.New("pipeline: missing name")
	}
	switch d.Version {
	case 0, 1, 2:
	default:
		return fmt.Errorf(
			"pipeline: unsupported schema version %d (this engine understands versions 1 and 2)",
			d.Version)
	}
	if len(d.Stages) == 0 {
		return errors.New("pipeline: no stages")
	}
	if d.WorkBucket == "" {
		return errors.New("pipeline: missing workBucket")
	}
	seen := make(map[string]bool, len(d.Stages))
	for i, s := range d.Stages {
		if s.Name == "" {
			return fmt.Errorf("pipeline: stage %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("pipeline: duplicate stage %q", s.Name)
		}
		seen[s.Name] = true
		if !d.v2() && (s.Objective != "" || s.Deadline != "") {
			return fmt.Errorf(
				`pipeline: stage %q: "objective"/"deadline" are schema v2 fields; migrate by adding "version": 2 to the document`,
				s.Name)
		}
		switch s.Type {
		case "shuffle":
			if err := d.validateShuffle(s); err != nil {
				return err
			}
		case "map":
			if s.Objective != "" || s.Deadline != "" {
				return fmt.Errorf(
					"pipeline: stage %q: objective belongs on a shuffle stage, not a map", s.Name)
			}
			if s.Function == "" {
				return fmt.Errorf("pipeline: stage %q: map needs a function", s.Name)
			}
			if s.InputsFrom == "" && len(s.DependsOn) == 0 {
				return fmt.Errorf("pipeline: stage %q: map needs inputsFrom or a dependency", s.Name)
			}
		default:
			return fmt.Errorf("pipeline: stage %q: unknown type %q", s.Name, s.Type)
		}
	}
	for _, s := range d.Stages {
		for _, dep := range s.DependsOn {
			if !seen[dep] {
				return fmt.Errorf("pipeline: stage %q depends on unknown %q", s.Name, dep)
			}
		}
	}
	return nil
}

// validateShuffle checks one shuffle stage under the document's schema
// version.
func (d *Doc) validateShuffle(s StageDoc) error {
	switch s.Strategy {
	case "object-storage", "vm", "cache", "cache-warm":
	case "auto":
		if !d.v2() {
			return fmt.Errorf(
				`pipeline: stage %q: strategy "auto" is a schema v2 feature; migrate by adding "version": 2 to the document (v1 shuffles must name object-storage, vm, cache, or cache-warm)`,
				s.Name)
		}
	case "":
		if !d.v2() {
			return fmt.Errorf(
				`pipeline: stage %q: shuffle needs a strategy; v2 documents ("version": 2) may omit it to engage the auto-planner`,
				s.Name)
		}
	default:
		return fmt.Errorf("pipeline: stage %q: unknown strategy %q", s.Name, s.Strategy)
	}

	if s.autoStrategy() && d.v2() {
		// The planner owns family-specific configuration; pinned knobs
		// would silently contradict its choice.
		pinned := []struct {
			field string
			set   bool
		}{
			{"hierarchical", s.Hierarchical},
			{"groups", s.Groups > 0},
			{"cacheNodes", s.CacheNodes > 0},
			{"instanceType", s.InstanceType != ""},
		}
		for _, pin := range pinned {
			if pin.set {
				return fmt.Errorf(
					"pipeline: stage %q: %q pins an exchange family, but the auto strategy plans it; drop the field or name the strategy",
					s.Name, pin.field)
			}
		}
		if _, err := s.objective(); err != nil {
			return err
		}
		if s.Objective != "min-cost-within" && s.Deadline != "" {
			return fmt.Errorf(
				`pipeline: stage %q: deadline requires objective "min-cost-within"`, s.Name)
		}
		if s.Objective == "min-cost-within" && s.Deadline == "" {
			return fmt.Errorf(
				`pipeline: stage %q: objective "min-cost-within" needs a "deadline" (a Go duration, e.g. "2m")`,
				s.Name)
		}
	} else if s.Objective != "" || s.Deadline != "" {
		return fmt.Errorf(
			`pipeline: stage %q: objective requires the auto strategy (omit "strategy" or set it to "auto")`,
			s.Name)
	}

	if s.Strategy == "vm" && s.Workers <= 0 {
		return fmt.Errorf("pipeline: stage %q: vm strategy needs explicit workers", s.Name)
	}
	if s.Hierarchical && s.Strategy != "object-storage" {
		return fmt.Errorf("pipeline: stage %q: hierarchical requires the object-storage strategy", s.Name)
	}
	if s.Groups > 0 && !s.Hierarchical {
		return fmt.Errorf("pipeline: stage %q: groups requires hierarchical", s.Name)
	}
	if s.Groups > 0 && s.Workers <= 0 {
		return fmt.Errorf(
			"pipeline: stage %q: groups requires explicit workers (%d groups cannot be checked against a planner-chosen worker count)",
			s.Name, s.Groups)
	}
	if s.Groups > 0 && s.Workers%s.Groups != 0 {
		return fmt.Errorf("pipeline: stage %q: %d groups do not divide %d workers",
			s.Name, s.Groups, s.Workers)
	}
	if s.CacheNodes > 0 && s.Strategy != "cache" && s.Strategy != "cache-warm" {
		return fmt.Errorf("pipeline: stage %q: cacheNodes requires a cache strategy", s.Name)
	}
	if s.MaxRetries < 0 {
		return fmt.Errorf("pipeline: stage %q: negative maxRetries", s.Name)
	}
	if s.Groups < 0 {
		return fmt.Errorf("pipeline: stage %q: negative groups", s.Name)
	}
	if s.CacheNodes < 0 {
		return fmt.Errorf("pipeline: stage %q: negative cacheNodes", s.Name)
	}
	return nil
}

// MapInputBuilder constructs the platform-function input for one
// object key of a map stage.
type MapInputBuilder func(objKey string, index int) any

// BuildOptions bind a document to a simulated cloud.
type BuildOptions struct {
	// Rig is the wired cloud (profile, executor, shuffle operator).
	Rig *calib.Rig
	// MapInputs provides the input builder for each map stage name.
	MapInputs map[string]MapInputBuilder
}

// Build converts the document into an executable workflow.
func (d *Doc) Build(opts BuildOptions) (*core.Workflow, error) {
	if opts.Rig == nil {
		return nil, errors.New("pipeline: BuildOptions.Rig is required")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	w := core.NewWorkflow(d.Name)
	for _, s := range d.Stages {
		var stage core.Stage
		switch s.Type {
		case "shuffle":
			params := opts.Rig.SortParams(d.Input.Bucket, d.Input.Key,
				d.WorkBucket, s.Name+"/", s.Workers)
			params.MemoryMB = pickInt(s.MemoryMB, params.MemoryMB)
			params.MaxRetries = s.MaxRetries
			params.Speculate = s.Speculate
			params.Hierarchical = s.Hierarchical
			params.Groups = s.Groups
			var strategy core.ExchangeStrategy
			switch {
			case d.v2() && s.autoStrategy():
				obj, err := s.objective()
				if err != nil {
					return nil, err
				}
				// A positive workers pins the fan-out; the planner still
				// chooses the family. Workers 0 lets it sweep.
				strategy = opts.Rig.AutoStrategy(obj)
			case s.Strategy == "vm":
				vs := opts.Rig.VMStrategy()
				if s.InstanceType != "" {
					vs.InstanceType = s.InstanceType
				}
				strategy = vs
			case s.Strategy == "cache" || s.Strategy == "cache-warm":
				cs := opts.Rig.CacheStrategy(s.Strategy == "cache-warm")
				if s.CacheNodes > 0 {
					cs.Nodes = s.CacheNodes
				}
				strategy = cs
			default:
				strategy = core.ObjectStorageExchange{}
			}
			stage = &core.SortStage{StageName: s.Name, Strategy: strategy, Params: params}
		case "map":
			builder, ok := opts.MapInputs[s.Name]
			if !ok {
				return nil, fmt.Errorf("pipeline: no input builder for map stage %q", s.Name)
			}
			inputsFrom := s.InputsFrom
			if inputsFrom == "" {
				inputsFrom = s.DependsOn[0] + ".keys"
			}
			stage = &core.MapStage{
				StageName:       s.Name,
				Function:        s.Function,
				InputsFromState: inputsFrom,
				BuildInput:      builder,
				MemoryMB:        s.MemoryMB,
			}
		}
		if err := w.Add(stage, s.DependsOn...); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return w, nil
}

func pickInt(override, fallback int) int {
	if override > 0 {
		return override
	}
	return fallback
}
