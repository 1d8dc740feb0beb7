// Package autoplan is the cost-based exchange-strategy planner: "a
// seer knows best". Where internal/shuffle plans only the worker count
// of the object-storage all-to-all, this package enumerates every
// exchange strategy the middleware implements — object-storage
// all-to-all, hierarchical (two-level), memcache-backed, and VM-staged
// — each across a sweep of worker counts, predicts virtual completion
// time and USD cost for every candidate from the same analytic models
// the operators plan with, and returns the best plan for a user
// objective (minimum time, minimum cost, or cheapest within a time
// bound).
//
// The planner is pure arithmetic over performance profiles: no
// simulation runs, so a full decision over dozens of candidates costs
// microseconds and can sit on every sort stage's hot path. Candidate
// evaluation fans out over a bounded set of goroutines since each
// prediction is independent.
package autoplan

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// Strategy identifies one exchange-strategy family.
type Strategy int

// The strategy families the planner enumerates, in display order.
const (
	ObjectStorage Strategy = iota + 1
	Hierarchical
	CacheBacked
	VMStaged
)

func (s Strategy) String() string {
	switch s {
	case ObjectStorage:
		return "object-storage"
	case Hierarchical:
		return "hierarchical"
	case CacheBacked:
		return "memcache"
	case VMStaged:
		return "vm"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Goal is the optimization target.
type Goal int

// MinTime (the zero value) minimizes predicted completion time;
// MinCost minimizes predicted USD; MinCostWithin minimizes USD among
// candidates meeting Objective.TimeBound, falling back to MinTime when
// none does.
const (
	MinTime Goal = iota
	MinCost
	MinCostWithin
)

func (g Goal) String() string {
	switch g {
	case MinTime:
		return "min-time"
	case MinCost:
		return "min-cost"
	case MinCostWithin:
		return "min-cost-within-bound"
	default:
		return fmt.Sprintf("Goal(%d)", int(g))
	}
}

// Objective is what the caller wants optimized.
type Objective struct {
	Goal Goal
	// TimeBound is the latency budget for MinCostWithin.
	TimeBound time.Duration
}

// Workload describes one sort/shuffle job to plan for.
type Workload struct {
	// DataBytes is the shuffle volume.
	DataBytes int64
	// MaxWorkers bounds the worker sweep (default 256).
	MaxWorkers int
	// Workers, when positive, pins the parallelism: the sweep collapses
	// to this single worker count (the caller fixed the fan-out).
	Workers int
	// WorkerMemBytes is the per-function memory usable for data.
	WorkerMemBytes int64
	// PartitionBps / MergeBps are per-worker compute throughputs.
	PartitionBps, MergeBps float64
	// OutputParts is the VM strategy's output fan-out (default 8); the
	// function strategies produce one part per worker.
	OutputParts int
}

// Env is the priced cloud the planner predicts against: the same
// profiles the operators execute with.
type Env struct {
	// Store is the object storage throughput profile.
	Store shuffle.StoreProfile
	// FunctionMemoryMB is the shuffle workers' memory grant, for
	// GB-second pricing (default 2048).
	FunctionMemoryMB int
	// FunctionStartup is the per-wave function startup estimate.
	FunctionStartup time.Duration
	// Prices is the billing book.
	Prices billing.PriceBook

	// NoObjectStorage / NoHierarchical disable those families (the
	// one-level all-to-all is on by default; the two-level needs its
	// repartition function registered on the platform).
	NoObjectStorage bool
	NoHierarchical  bool

	// HasCache enables the memcache-backed family.
	HasCache bool
	// Cache is the cache node profile.
	Cache memcache.Config
	// CacheMaxNodes caps the cluster size (0: no quota). Volumes
	// needing more nodes make the cache family infeasible.
	CacheMaxNodes int
	// CacheWarm models a pre-provisioned cluster: no spin-up latency.
	CacheWarm bool
	// CacheHeadroom oversizes auto-sized clusters (default 1.3).
	CacheHeadroom float64
	// CacheStandingNodes, when positive, says a session-owned cluster
	// of that size is already running and already paid for: the cache
	// family uses it (no spin-up, no node-hours in the marginal cost)
	// and volumes beyond its capacity are infeasible.
	CacheStandingNodes int

	// VMTypes is the instance catalog; empty disables the VM family.
	VMTypes []vm.InstanceType
	// VMInstanceType restricts the VM family to one catalog entry
	// ("" searches the whole catalog).
	VMInstanceType string
	// VMSetup is the post-boot runtime deployment time.
	VMSetup time.Duration
	// VMSortBps is the instance's aggregate local sort throughput
	// (default 270e6).
	VMSortBps float64
	// VMConns is the staging connection count (0: one per vCPU).
	VMConns int
	// VMStandingType, when non-empty, names a session-owned instance
	// that is already booted and already paid for: the VM family
	// considers only that catalog entry, with no boot/setup latency and
	// no instance-hours in the marginal cost.
	VMStandingType string
	// NoSpot disables spot (interruptible) VM candidates; by default
	// every catalog entry with a spot price is also enumerated as a
	// spot candidate priced under its InterruptRate.
	NoSpot bool

	// FaasStragglerRate / FaasStragglerSlowdown model the function
	// platform's straggler exposure (the operators' Config values):
	// the probability an invocation runs StragglerSlowdown times
	// slower. The planner weighs this exposure against the
	// duplicate-invocation cost to decide whether to arm speculation.
	FaasStragglerRate     float64
	FaasStragglerSlowdown float64
	// FaasFailureRate is the platform's transient invocation failure
	// probability; it feeds the same speculation advice (failed
	// invocations retry, widening the wave tail).
	FaasFailureRate float64

	// BrownoutPerHour models the object store's brownout arrival rate
	// (incidents per hour of run time). Each incident opens a window of
	// BrownoutDuration (default 5s) during which requests fail with
	// probability BrownoutRate (default 0.5) and retry on the client's
	// exponential ladder — PR 8's per-incident retry-budget model. The
	// planner prices the expected stalls and retried-request fees into
	// every strategy's store legs, so store-heavy plans lose ground as
	// the modeled incidence rises. Zero: a healthy store.
	BrownoutPerHour  float64
	BrownoutRate     float64
	BrownoutDuration time.Duration

	// ZoneOutagePerHour models correlated whole-zone outages: spot
	// capacity in the zone reclaimed at once, the cache cluster hosted
	// there dead, the store browned out for the outage window. Spot VM
	// candidates add it to their interrupt rate; cache candidates price
	// the expected mid-job demotion to the object-store path; all
	// store legs price the correlated brownout windows.
	ZoneOutagePerHour float64
	// Zones is the number of placement domains available (default 1).
	// With two or more, the cache family is also enumerated as a
	// multi-zone variant: nodes spread across zones, so an outage costs
	// 1/Zones of the rework — at a cross-zone traffic premium.
	Zones int
	// CrossZoneRTT is the extra request latency cross-zone cache
	// traffic pays in multi-zone placements (default 1ms).
	CrossZoneRTT time.Duration
	// CrossZoneGBUSD is the per-GB fee on cache traffic crossing zone
	// boundaries in multi-zone placements (default 0.01).
	CrossZoneGBUSD float64

	// History, when set, supplies measured actual/predicted calibration
	// factors per family; every prediction is scaled by them before the
	// objective is evaluated. See History.
	History *History
}

// Candidate is one enumerated plan with its prediction.
type Candidate struct {
	// Strategy is the exchange family.
	Strategy Strategy
	// Workers is the function parallelism (VM: the output fan-out).
	Workers int
	// Groups is the hierarchical group count (0 otherwise).
	Groups int
	// CacheNodes is the cluster size (0 otherwise).
	CacheNodes int
	// Instance is the VM catalog entry ("" otherwise).
	Instance string
	// Spot marks a VM candidate priced on interruptible capacity: Time
	// and CostUSD are expectations under the type's InterruptRate
	// (preemption probability, rework, re-boot, on-demand fallback).
	Spot bool
	// MultiZone marks a cache candidate whose nodes spread across the
	// env's zones: zone-outage rework shrinks to 1/Zones at a
	// cross-zone latency and traffic premium.
	MultiZone bool
	// Time is the predicted virtual completion time (calibrated by
	// Env.History when one is set).
	Time time.Duration
	// CostUSD is the predicted spend (calibrated likewise).
	CostUSD float64
	// ModelTime / ModelUSD are the raw analytic predictions before any
	// history calibration — what new observations must be recorded
	// against, or corrections would decay toward 1.
	ModelTime time.Duration
	ModelUSD  float64
	// Feasible reports whether the candidate can run at all; Reason
	// says why not.
	Feasible bool
	Reason   string
}

// Config renders the candidate's configuration compactly.
func (c Candidate) Config() string {
	switch c.Strategy {
	case Hierarchical:
		return fmt.Sprintf("w=%d g=%d", c.Workers, c.Groups)
	case CacheBacked:
		if c.MultiZone {
			return fmt.Sprintf("w=%d nodes=%d multi-zone", c.Workers, c.CacheNodes)
		}
		return fmt.Sprintf("w=%d nodes=%d", c.Workers, c.CacheNodes)
	case VMStaged:
		if c.Spot {
			return fmt.Sprintf("%s(spot) parts=%d", c.Instance, c.Workers)
		}
		return fmt.Sprintf("%s parts=%d", c.Instance, c.Workers)
	default:
		return fmt.Sprintf("w=%d", c.Workers)
	}
}

// SpeculationDecision is the planner's straggler-mitigation verdict
// for the chosen plan.
type SpeculationDecision struct {
	// Arm says the chosen plan's waves should run speculatively.
	Arm bool
	// Reason explains the verdict either way.
	Reason string
}

// Decision is the planner's output: the chosen plan and the full
// candidate table it beat.
type Decision struct {
	Objective  Objective
	Workload   Workload
	Chosen     Candidate
	Candidates []Candidate
	// Speculation says whether the chosen plan's function waves should
	// arm straggler speculation (always unarmed for VM plans).
	Speculation SpeculationDecision
}

// evalConcurrency bounds the candidate-evaluation fan-out.
func evalConcurrency() int {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

func (w Workload) withDefaults() Workload {
	if w.MaxWorkers <= 0 {
		w.MaxWorkers = 256
	}
	// Compute-throughput defaults match shuffle.PlanInput's.
	if w.PartitionBps <= 0 {
		w.PartitionBps = 150e6
	}
	if w.MergeBps <= 0 {
		w.MergeBps = 200e6
	}
	if w.OutputParts <= 0 {
		w.OutputParts = 8
	}
	return w
}

// DefaultVMSortBps is the VM family's aggregate local-sort throughput
// when the env leaves it unset. Exported so dispatchers (core) can run
// the VM with the same figure the planner predicted with.
const DefaultVMSortBps = 270e6

func (e Env) withDefaults() Env {
	if e.FunctionMemoryMB <= 0 {
		e.FunctionMemoryMB = 2048
	}
	if e.CacheHeadroom <= 0 {
		e.CacheHeadroom = 1.3
	}
	if e.VMSortBps <= 0 {
		e.VMSortBps = DefaultVMSortBps
	}
	if e.BrownoutPerHour > 0 {
		if e.BrownoutRate <= 0 {
			e.BrownoutRate = 0.5
		}
		if e.BrownoutDuration <= 0 {
			e.BrownoutDuration = 5 * time.Second
		}
	}
	if e.Zones <= 0 {
		e.Zones = 1
	}
	if e.CrossZoneRTT <= 0 {
		e.CrossZoneRTT = time.Millisecond
	}
	if e.CrossZoneGBUSD <= 0 {
		e.CrossZoneGBUSD = 0.01
	}
	return e
}

// planInput converts the workload into the shuffle planner's input.
func (w Workload) planInput(startup time.Duration) shuffle.PlanInput {
	return shuffle.PlanInput{
		DataBytes:      w.DataBytes,
		MaxWorkers:     w.MaxWorkers,
		WorkerMemBytes: w.WorkerMemBytes,
		PartitionBps:   w.PartitionBps,
		MergeBps:       w.MergeBps,
		Startup:        startup,
	}
}

// workerLadder is the sweep of worker counts the function strategies
// are evaluated at: powers of two within [minW, MaxWorkers], plus the
// memory floor and the cap themselves.
func workerLadder(w Workload) []int {
	minW := shuffle.MinWorkersForMemory(w.planInput(0))
	if w.Workers > 0 {
		if w.Workers < minW || w.Workers > w.MaxWorkers {
			return nil
		}
		return []int{w.Workers}
	}
	if minW > w.MaxWorkers {
		return nil
	}
	seen := map[int]bool{}
	var ladder []int
	add := func(n int) {
		if n >= minW && n <= w.MaxWorkers && !seen[n] {
			seen[n] = true
			ladder = append(ladder, n)
		}
	}
	add(minW)
	for p := 1; p <= w.MaxWorkers; p *= 2 {
		add(p)
	}
	add(w.MaxWorkers)
	sort.Ints(ladder)
	return ladder
}

// Plan enumerates every candidate, predicts each concurrently, and
// picks the best feasible one for the objective. The returned
// Decision's Candidates are sorted by predicted time (infeasible ones
// last), and Chosen is never strictly dominated — worse time AND worse
// cost — by any feasible candidate.
func Plan(w Workload, env Env, obj Objective) (Decision, error) {
	w = w.withDefaults()
	env = env.withDefaults()
	if w.DataBytes <= 0 {
		return Decision{}, fmt.Errorf("autoplan: non-positive data size %d", w.DataBytes)
	}
	if env.Store.PerConnBandwidth <= 0 || env.Store.ReadOpsPerSec <= 0 || env.Store.WriteOpsPerSec <= 0 {
		return Decision{}, fmt.Errorf("autoplan: invalid store profile %+v", env.Store)
	}
	if env.HasCache && (env.Cache.NodeMemoryBytes <= 0 || env.Cache.PerConnBandwidth <= 0 || env.Cache.NodeOpsPerSec <= 0) {
		// A zero node capacity would spin NodesForCapacity forever.
		return Decision{}, fmt.Errorf("autoplan: invalid cache profile %+v", env.Cache)
	}

	specs := enumerate(w, env)
	if len(specs) == 0 {
		return Decision{}, fmt.Errorf(
			"autoplan: no candidate families available for %d bytes (every strategy disabled or absent)",
			w.DataBytes)
	}

	// Evaluate concurrently: each goroutine owns one index, so the
	// slice writes never race.
	cands := make([]Candidate, len(specs))
	sem := make(chan struct{}, evalConcurrency())
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := specs[i].evaluate(w, env)
			c.ModelTime, c.ModelUSD = c.Time, c.CostUSD
			cands[i] = env.History.calibrate(c)
		}(i)
	}
	wg.Wait()

	dec := Decision{Objective: obj, Workload: w, Candidates: cands}
	chosen, ok := choose(cands, obj)
	if !ok {
		seen := map[string]bool{}
		var reasons []string
		for _, c := range cands {
			r := fmt.Sprintf("%s: %s", c.Strategy, c.Reason)
			if !seen[r] {
				seen[r] = true
				reasons = append(reasons, r)
			}
		}
		return dec, fmt.Errorf("autoplan: no feasible candidate among %d (%s)",
			len(cands), strings.Join(reasons, "; "))
	}
	dec.Chosen = chosen
	dec.Speculation = adviseSpeculation(chosen, w, env, obj)
	sortCandidates(dec.Candidates)
	return dec, nil
}

// adviseSpeculation weighs the chosen plan's modeled straggler/failure
// exposure against the duplicate-invocation cost of mitigating it.
// Speculation duplicates the laggard tail of each wave (the slowest
// ~1-quantile fraction, 25% at the faas default), so arming pays when
// the expected tail added by stragglers outweighs that duplicate
// spend in the objective's currency: wall-clock exposure for MinTime
// (and within-bound), billed straggler-seconds for MinCost.
func adviseSpeculation(c Candidate, w Workload, env Env, obj Objective) SpeculationDecision {
	switch c.Strategy {
	case ObjectStorage, Hierarchical, CacheBacked:
	default:
		return SpeculationDecision{Reason: "vm plan: no function waves to speculate"}
	}
	s := env.FaasStragglerRate
	// Transient failures retry serially inside the wave, widening the
	// tail the same way a straggler does; fold them into the exposure.
	exposure := s + env.FaasFailureRate
	if exposure <= 0 {
		return SpeculationDecision{Reason: "no modeled straggler or failure exposure"}
	}
	slow := env.FaasStragglerSlowdown
	if slow <= 1 {
		slow = 3 // the faas default when StragglerRate > 0
	}
	n := float64(c.Workers)
	// Two waves of n workers; a wave stalls if any of its n inputs
	// draws a straggler (or a retried failure).
	pWave := 1 - math.Pow(1-exposure, n)
	waveT := (c.Time - env.FunctionStartup).Seconds() / 2
	if waveT <= 0 {
		return SpeculationDecision{Reason: "degenerate plan time"}
	}
	// Without mitigation the stalled wave finishes at ~slow x its
	// service time; with it, at ~service time plus detection.
	tailSeconds := 2 * pWave * (slow - 1) * waveT
	const backupFrac = 0.25 // 1 - default speculation quantile
	backups := int(math.Ceil(backupFrac*n)) * 2
	dupUSD := functionUSD(env, backups, waveT, backups)
	if obj.Goal == MinCost {
		// Stragglers bill their own slowdown; speculation trades that
		// billed tail for the duplicates' spend.
		memGB := float64(env.FunctionMemoryMB) / 1024
		savedUSD := 2 * exposure * n * (slow - 1) * waveT * memGB * env.Prices.FunctionGBSecond
		if savedUSD > dupUSD {
			return SpeculationDecision{Arm: true, Reason: fmt.Sprintf(
				"straggler billing exposure $%.4f > duplicate cost $%.4f", savedUSD, dupUSD)}
		}
		return SpeculationDecision{Reason: fmt.Sprintf(
			"straggler billing exposure $%.4f <= duplicate cost $%.4f", savedUSD, dupUSD)}
	}
	// Time objectives: arm when the expected tail is a meaningful
	// fraction of the makespan (5%), so near-zero exposure does not
	// pay the duplicate-invocation overhead for nothing.
	if tailSeconds > 0.05*c.Time.Seconds() {
		return SpeculationDecision{Arm: true, Reason: fmt.Sprintf(
			"expected straggler tail %.2fs (p=%.2f/wave, %gx slowdown) > 5%% of %.2fs makespan",
			tailSeconds, pWave, slow, c.Time.Seconds())}
	}
	return SpeculationDecision{Reason: fmt.Sprintf(
		"expected straggler tail %.2fs <= 5%% of %.2fs makespan", tailSeconds, c.Time.Seconds())}
}

// candidateSpec is one configuration awaiting evaluation. A non-empty
// reason marks the spec dead on arrival: it becomes an infeasible
// candidate row so the decision table shows why a family is absent.
type candidateSpec struct {
	strategy  Strategy
	workers   int
	instance  vm.InstanceType
	spot      bool
	multiZone bool
	reason    string
}

// enumerate lists every configuration to evaluate, in deterministic
// order.
func enumerate(w Workload, env Env) []candidateSpec {
	var specs []candidateSpec
	functionFamilies := func(n int, reason string) {
		if !env.NoObjectStorage {
			specs = append(specs, candidateSpec{strategy: ObjectStorage, workers: n, reason: reason})
		}
		if !env.NoHierarchical && (n >= 4 || reason != "") {
			specs = append(specs, candidateSpec{strategy: Hierarchical, workers: n, reason: reason})
		}
		if env.HasCache {
			specs = append(specs, candidateSpec{strategy: CacheBacked, workers: n, reason: reason})
			// Multi-zone variant: the same cluster spread across the
			// env's zones, trading a cross-zone premium for a 1/Zones
			// outage blast radius. Only meaningful with 2+ zones.
			if env.Zones > 1 {
				specs = append(specs, candidateSpec{strategy: CacheBacked, workers: n, multiZone: true, reason: reason})
			}
		}
	}
	ladder := workerLadder(w)
	for _, n := range ladder {
		functionFamilies(n, "")
	}
	if len(ladder) == 0 {
		// No worker count satisfies the constraints: keep the function
		// families visible as infeasible rows instead of silently
		// handing the job to whatever VM fits.
		minW := shuffle.MinWorkersForMemory(w.planInput(0))
		if w.Workers > 0 {
			functionFamilies(w.Workers, fmt.Sprintf(
				"pinned %d workers outside [%d, %d]", w.Workers, minW, w.MaxWorkers))
		} else {
			functionFamilies(minW, fmt.Sprintf(
				"memory floor %d workers above cap %d", minW, w.MaxWorkers))
		}
	}
	// A session's standing instance overrides the profile's pinned
	// type: the already-paid machine is the one to consider, whatever
	// the profile would have provisioned.
	vmPin := env.VMInstanceType
	if env.VMStandingType != "" {
		vmPin = env.VMStandingType
	}
	for _, it := range env.VMTypes {
		if vmPin != "" && it.Name != vmPin {
			continue
		}
		specs = append(specs, candidateSpec{strategy: VMStaged, workers: w.OutputParts, instance: it})
		// Spot variant: same machine, interruptible price, expected
		// rework under its InterruptRate. A standing instance is
		// already running (and already paid for), so no spot variant.
		if !env.NoSpot && it.SpotHourlyUSD > 0 && env.VMStandingType == "" {
			specs = append(specs, candidateSpec{strategy: VMStaged, workers: w.OutputParts, instance: it, spot: true})
		}
	}
	return specs
}

// evaluate predicts one candidate's time and cost.
func (s candidateSpec) evaluate(w Workload, env Env) Candidate {
	if s.reason != "" {
		return Candidate{Strategy: s.strategy, Workers: s.workers, Reason: s.reason}
	}
	switch s.strategy {
	case ObjectStorage:
		return predictObjectStorage(s.workers, w, env)
	case Hierarchical:
		return predictHierarchical(s.workers, w, env)
	case CacheBacked:
		return predictCache(s.workers, s.multiZone, w, env)
	case VMStaged:
		return predictVM(s.instance, s.spot, w, env)
	default:
		return Candidate{Strategy: s.strategy, Feasible: false, Reason: "unknown strategy"}
	}
}

// objectiveValue ranks a candidate under the objective; infeasible
// candidates rank +Inf. The secondary value breaks ties so the chosen
// plan is Pareto-optimal among equals.
func objectiveValue(c Candidate, obj Objective) (primary, secondary float64) {
	if !c.Feasible {
		return math.Inf(1), math.Inf(1)
	}
	switch obj.Goal {
	case MinCost:
		return c.CostUSD, c.Time.Seconds()
	case MinCostWithin:
		if obj.TimeBound > 0 && c.Time > obj.TimeBound {
			return math.Inf(1), math.Inf(1)
		}
		return c.CostUSD, c.Time.Seconds()
	default:
		return c.Time.Seconds(), c.CostUSD
	}
}

// choose scans for the objective's argmin with deterministic
// tie-breaking (secondary value, then enumeration order). For
// MinCostWithin with no candidate inside the bound, it falls back to
// the fastest feasible plan.
func choose(cands []Candidate, obj Objective) (Candidate, bool) {
	best := -1
	var bp, bs float64
	for i, c := range cands {
		p, s := objectiveValue(c, obj)
		if math.IsInf(p, 1) {
			continue
		}
		if best < 0 || p < bp || (p == bp && s < bs) {
			best, bp, bs = i, p, s
		}
	}
	if best < 0 {
		if obj.Goal == MinCostWithin {
			return choose(cands, Objective{Goal: MinTime})
		}
		return Candidate{}, false
	}
	return cands[best], true
}

// sortCandidates orders the table for display: feasible by predicted
// time (cost, then strategy and workers as tie-breaks), infeasible
// last in enumeration order.
func sortCandidates(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		if !a.Feasible {
			return false // keep enumeration order among infeasible
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.CostUSD != b.CostUSD {
			return a.CostUSD < b.CostUSD
		}
		if a.Strategy != b.Strategy {
			return a.Strategy < b.Strategy
		}
		return a.Workers < b.Workers
	})
}

// Same reports whether two candidates are the same configuration
// (ignoring predictions).
func (c Candidate) Same(o Candidate) bool {
	return c.Strategy == o.Strategy && c.Workers == o.Workers &&
		c.Groups == o.Groups && c.CacheNodes == o.CacheNodes &&
		c.Instance == o.Instance && c.Spot == o.Spot &&
		c.MultiZone == o.MultiZone
}
