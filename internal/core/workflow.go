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
// A SortStage carries a shuffle.Spec, and a strategy refuses a spec whose
// Exchange belongs to another family; *AutoExchange is the planner.
//
// A stage pays for what it used: it leads a des scope of its own, so
// every invocation, request, instance and cluster its processes cause
// is charged to it as it is metered, however many jobs overlap. The
// stored volume, which no one request causes, is split among the stages
// open while it accrues (the executor's share clock), and the global
// meters stay the independent truth. A StageReport.Cost is a
// billing.StageCost; RunReport.MeteredUSD is a run's amount, and
// RunReport.Cost renders its itemised bill when somebody prints it.
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
	// nil, which is why it is a pointer: the run holds its first stage's
	// context, and the outcome inline would tip every run into the next
	// size class.
	Outcome *StageOutcome
}

// RunState is the shared control-plane state of one workflow run. The
// zero value is empty; the first Set makes the map (most runs never
// write one).
type RunState struct {
	values map[string]any
}

// Set stores a value under key.
func (s *RunState) Set(key string, v any) {
	if s.values == nil {
		s.values = make(map[string]any)
	}
	s.values[key] = v
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

// Workflow is a DAG of named stages, found by scanning nodes: workflows
// are a handful of stages, and a name index cost more to build per
// workflow than every lookup it served. The nodes are kept by value and
// the first one inline, so a one-stage workflow is one allocation. It is
// used only through the *Workflow NewWorkflow returns: nodes aliases one,
// and a copy's nodes would go on naming the original's.
type Workflow struct {
	name  string
	nodes []node
	one   [1]node
}

type node struct {
	stage Stage
	deps  []string
}

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow {
	w := &Workflow{name: name}
	w.nodes = w.one[:0]
	return w
}

// position returns the named stage's index in nodes, or -1.
func (w *Workflow) position(name string) int {
	for i, n := range w.nodes {
		if n.stage.Name() == name {
			return i
		}
	}
	return -1
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

// Add appends a stage depending on the named stages, which may be added
// later: Validate resolves the names.
func (w *Workflow) Add(stage Stage, deps ...string) error {
	if stage == nil {
		return errors.New("core: nil stage")
	}
	name := stage.Name()
	if name == "" {
		return errors.New("core: stage with empty name")
	}
	if w.position(name) >= 0 {
		return fmt.Errorf("core: duplicate stage %q", name)
	}
	w.nodes = append(w.nodes, node{stage: stage, deps: append([]string(nil), deps...)})
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
			if w.position(d) < 0 {
				return fmt.Errorf("core: stage %q depends on unknown %q", n.stage.Name(), d)
			}
			if d == n.stage.Name() {
				return fmt.Errorf("core: stage %q depends on itself", d)
			}
		}
	}
	// A stage is settled once all its dependencies are. Every sweep of
	// an acyclic graph settles at least one more stage (all of them when
	// stages were added in dependency order); a sweep that settles none
	// has only a cycle left. Up to 64 marks stay on the stack.
	var buf [64]bool
	settled := buf[:]
	if len(w.nodes) > len(buf) {
		settled = make([]bool, len(w.nodes))
	}
	for left := len(w.nodes); left > 0; {
		before := left
	sweep:
		for i, n := range w.nodes {
			if settled[i] {
				continue
			}
			for _, d := range n.deps {
				if !settled[w.position(d)] {
					continue sweep
				}
			}
			settled[i] = true
			left--
		}
		if left == before {
			return errors.New("core: workflow has a dependency cycle")
		}
	}
	return nil
}
