// Package core implements the serverless workflow engine the paper
// builds on (the Lithops analog): DAG workflows whose stages run on a
// FaaS platform or inside provisioned VMs, exchanging intermediate
// data through object storage, with per-stage latency and cost
// metering.
//
// Its central abstraction for this reproduction is the
// ExchangeStrategy: the sort stage can run "purely serverless" (an
// all-to-all shuffle through object storage, Figure 1 B) or
// "VM-supported" (staged into one large-memory instance, Figure 1 A).
package core

import (
	"errors"
	"fmt"
	"strings"

	"github.com/faaspipe/faaspipe/internal/des"
)

// Stage is one node of a workflow DAG.
type Stage interface {
	// Name identifies the stage; unique within a workflow.
	Name() string
	// Run executes the stage to completion, blocking ctx.Proc.
	Run(ctx *StageContext) error
}

// StageContext is what a stage runs with.
type StageContext struct {
	// Proc is the orchestrator process driving this stage.
	Proc *des.Proc
	// Exec is the owning executor (platform, store, provisioner).
	Exec *Executor
	// State is the run-scoped blackboard stages use to pass small
	// control-plane values (output key lists, counts) downstream.
	// Bulk data always goes through the object store.
	State *RunState
	// Outcome is the stage's own record for its StageReport: detail
	// line and failure recovery. A stage with something to report sets
	// it; the executor copies it once Run returns. Most stages leave it
	// nil, which is why it is a pointer: the context is allocated per
	// stage per job.
	Outcome *StageOutcome
}

// RunState is the shared control-plane state of one workflow run.
type RunState struct {
	values map[string]any
}

// NewRunState returns an empty state.
func NewRunState() *RunState {
	return &RunState{values: make(map[string]any)}
}

// Set stores a value under key.
func (s *RunState) Set(key string, v any) { s.values[key] = v }

// Get returns the value under key, if present.
func (s *RunState) Get(key string) (any, bool) {
	v, ok := s.values[key]
	return v, ok
}

// Keys returns the stage output keys stored under key as []string.
func (s *RunState) Keys(key string) ([]string, error) {
	v, ok := s.values[key]
	if !ok {
		return nil, fmt.Errorf("core: no state %q", key)
	}
	keys, ok := v.([]string)
	if !ok {
		return nil, fmt.Errorf("core: state %q is %T, want []string", key, v)
	}
	return keys, nil
}

// Workflow is a DAG of named stages.
type Workflow struct {
	name  string
	nodes []*node
	index map[string]*node
}

type node struct {
	stage Stage
	deps  []string
}

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow {
	return &Workflow{name: name, index: make(map[string]*node)}
}

// Name returns the workflow name.
func (w *Workflow) Name() string { return w.name }

// StageNames returns stage names in insertion order.
func (w *Workflow) StageNames() []string {
	out := make([]string, len(w.nodes))
	for i, n := range w.nodes {
		out[i] = n.stage.Name()
	}
	return out
}

// Add appends a stage depending on the named earlier stages.
func (w *Workflow) Add(stage Stage, deps ...string) error {
	if stage == nil {
		return errors.New("core: nil stage")
	}
	name := stage.Name()
	if name == "" {
		return errors.New("core: stage with empty name")
	}
	if _, dup := w.index[name]; dup {
		return fmt.Errorf("core: duplicate stage %q", name)
	}
	n := &node{stage: stage, deps: append([]string(nil), deps...)}
	w.nodes = append(w.nodes, n)
	w.index[name] = n
	return nil
}

// Describe renders the DAG as indented text in topological order —
// the executable counterpart of the paper's Figure 1 architecture
// diagram. Each line shows a stage, its dependencies, and (for sort
// stages) the data-exchange strategy, the experimental variable.
func (w *Workflow) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %q:\n", w.name)
	for _, n := range w.nodes {
		fmt.Fprintf(&b, "  %s", n.stage.Name())
		if s, ok := n.stage.(*SortStage); ok {
			fmt.Fprintf(&b, " [exchange: %s]", s.exchangeLabel())
		}
		if r, ok := n.stage.(*RetryStage); ok {
			if s, ok := r.Inner.(*SortStage); ok {
				fmt.Fprintf(&b, " [exchange: %s, retried]", s.exchangeLabel())
			} else {
				fmt.Fprint(&b, " [retried]")
			}
		}
		if len(n.deps) > 0 {
			fmt.Fprintf(&b, "  <- %s", strings.Join(n.deps, ", "))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Validate checks that all dependencies exist and the graph is
// acyclic.
func (w *Workflow) Validate() error {
	if len(w.nodes) == 0 {
		return errors.New("core: empty workflow")
	}
	for _, n := range w.nodes {
		for _, d := range n.deps {
			if _, ok := w.index[d]; !ok {
				return fmt.Errorf("core: stage %q depends on unknown %q", n.stage.Name(), d)
			}
			if d == n.stage.Name() {
				return fmt.Errorf("core: stage %q depends on itself", d)
			}
		}
	}
	// Kahn's algorithm for cycle detection.
	indeg := make(map[string]int, len(w.nodes))
	dependents := make(map[string][]string)
	for _, n := range w.nodes {
		indeg[n.stage.Name()] = len(n.deps)
		for _, d := range n.deps {
			dependents[d] = append(dependents[d], n.stage.Name())
		}
	}
	var ready []string
	for name, d := range indeg {
		if d == 0 {
			ready = append(ready, name)
		}
	}
	seen := 0
	for len(ready) > 0 {
		cur := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		seen++
		for _, dep := range dependents[cur] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if seen != len(w.nodes) {
		return errors.New("core: workflow has a dependency cycle")
	}
	return nil
}
