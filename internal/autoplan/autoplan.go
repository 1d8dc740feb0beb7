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
// microseconds and can sit on every sort stage's hot path.
package autoplan

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/faas"
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

// strategyNames are the families' names in reports.
var strategyNames = map[Strategy]string{
	ObjectStorage: "object-storage",
	Hierarchical:  "hierarchical",
	CacheBacked:   "memcache",
	VMStaged:      "vm",
}

func (s Strategy) String() string {
	if name, ok := strategyNames[s]; ok {
		return name
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
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
	// TimeBound is the latency budget for MinCostWithin, which needs a
	// positive one.
	TimeBound time.Duration
}

// Workload describes one sort/shuffle job to plan for.
type Workload struct {
	// PlanInput is the job as the shuffle planner sees it: the volume,
	// the worker bounds, the per-worker compute throughputs and the
	// per-wave function startup estimate.
	shuffle.PlanInput
	// Workers, when positive, pins the parallelism: the sweep collapses
	// to this single worker count (the caller fixed the fan-out), and the
	// VM strategy writes that many output parts (8 when unpinned).
	Workers int
}

// Env is the priced cloud the planner predicts against: the same
// profiles the operators execute with.
type Env struct {
	// Store is the object storage throughput profile.
	Store shuffle.StoreProfile
	// Faas is the function platform's profile, as the operators run on
	// it. MemoryMB is the shuffle workers' grant for GB-second pricing;
	// Plan refuses a non-positive one, as faas.New does. FailureRate,
	// StragglerRate and Slowdown are its straggler exposure: the planner
	// weighs it against the duplicate-invocation cost to decide whether
	// to arm speculation (failed invocations retry, widening the wave
	// tail like a straggler).
	Faas faas.Config
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
	// CacheStandingNodes, when positive, says a session-owned cluster
	// of that size is already running and already paid for: the cache
	// family uses it (no spin-up, no node-hours in the marginal cost)
	// and volumes beyond its capacity are infeasible.
	CacheStandingNodes int

	// VMTypes is the instance catalog; empty disables the VM family.
	VMTypes []vm.InstanceType
	// VM is the leg the VM family runs as: its InstanceType restricts
	// the family to one catalog entry ("" searches the whole catalog),
	// and its Setup, SortRate and ConnsOn price the run.
	VM vm.Leg
	// VMStandingType, when non-empty, names a session-owned instance
	// that is already booted and already paid for: the VM family
	// considers only that catalog entry, with no boot/setup latency and
	// no instance-hours in the marginal cost.
	VMStandingType string

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

func (e Env) withDefaults() Env {
	if e.Zones <= 0 {
		e.Zones = 1
	}
	if e.CrossZoneRTT <= 0 {
		e.CrossZoneRTT = time.Millisecond
	}
	return e
}

// workerLadder is the sweep of worker counts the function strategies
// are evaluated at: powers of two within [minW, MaxWorkers], plus the
// memory floor and the cap themselves. When no worker count satisfies
// the constraints it returns the one the caller asked for (or the
// floor) with the reason it cannot run, so the function families stay
// visible as infeasible rows instead of the job silently going to
// whatever VM fits.
func workerLadder(w Workload) (ladder []int, dead string) {
	minW := shuffle.MinWorkersForMemory(w.PlanInput)
	switch {
	case w.Workers > 0 && (w.Workers < minW || w.Workers > w.MaxWorkers):
		return []int{w.Workers}, fmt.Sprintf(
			"pinned %d workers outside [%d, %d]", w.Workers, minW, w.MaxWorkers)
	case w.Workers > 0:
		return []int{w.Workers}, ""
	case minW > w.MaxWorkers:
		return []int{minW}, fmt.Sprintf(
			"memory floor %d workers above cap %d", minW, w.MaxWorkers)
	}
	// Ascending and without repeats by construction: the floor, the
	// powers of two strictly between, the cap.
	ladder = []int{minW}
	for p := 1; p < w.MaxWorkers; p *= 2 {
		if p > minW {
			ladder = append(ladder, p)
		}
	}
	if w.MaxWorkers > minW {
		ladder = append(ladder, w.MaxWorkers)
	}
	return ladder, ""
}

// Plan enumerates every candidate, predicts each, and picks the best
// feasible one for the objective. The returned Decision's Candidates
// are sorted by predicted time (infeasible ones last), and Chosen is
// never strictly dominated — worse time AND worse cost — by any
// feasible candidate.
func Plan(w Workload, env Env, obj Objective) (Decision, error) {
	w.PlanInput = w.PlanInput.WithDefaults()
	env = env.withDefaults()
	if w.DataBytes <= 0 {
		return Decision{}, fmt.Errorf("autoplan: non-positive data size %d", w.DataBytes)
	}
	if obj.Goal == MinCostWithin && obj.TimeBound <= 0 {
		return Decision{}, fmt.Errorf("autoplan: %s needs a positive time bound, got %v", obj.Goal, obj.TimeBound)
	}
	if env.Store.PerConnBandwidth <= 0 || env.Store.ReadOpsPerSec <= 0 || env.Store.WriteOpsPerSec <= 0 {
		return Decision{}, fmt.Errorf("autoplan: invalid store profile %+v", env.Store)
	}
	if env.Faas.MemoryMB <= 0 {
		return Decision{}, fmt.Errorf("autoplan: non-positive function memory grant %d MB", env.Faas.MemoryMB)
	}
	if env.HasCache && (env.Cache.NodeMemoryBytes <= 0 || env.Cache.PerConnBandwidth <= 0 || env.Cache.NodeOpsPerSec <= 0) {
		// A zero node capacity would spin NodesForCapacity forever.
		return Decision{}, fmt.Errorf("autoplan: invalid cache profile %+v", env.Cache)
	}

	cands := enumerate(w, env)
	if len(cands) == 0 {
		return Decision{}, fmt.Errorf(
			"autoplan: no candidate families available for %d bytes (every strategy disabled or absent)",
			w.DataBytes)
	}
	for i, c := range cands {
		c.ModelTime, c.ModelUSD = c.Time, c.CostUSD
		cands[i] = env.History.calibrate(c)
	}

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
// 1 - faas.SpeculationQuantile of it, 25%), so arming pays when
// the expected tail added by stragglers outweighs that duplicate
// spend in the objective's currency: wall-clock exposure for MinTime
// (and within-bound), billed straggler-seconds for MinCost.
func adviseSpeculation(c Candidate, w Workload, env Env, obj Objective) SpeculationDecision {
	switch c.Strategy {
	case ObjectStorage, Hierarchical, CacheBacked:
	default:
		return SpeculationDecision{Reason: "vm plan: no function waves to speculate"}
	}
	// Transient failures retry serially inside the wave, widening the
	// tail the same way a straggler does; fold them into the exposure.
	exposure := env.Faas.StragglerRate + env.Faas.FailureRate
	if exposure <= 0 {
		return SpeculationDecision{Reason: "no modeled straggler or failure exposure"}
	}
	slow := env.Faas.Slowdown()
	n := float64(c.Workers)
	// Two waves of n workers; a wave stalls if any of its n inputs
	// draws a straggler (or a retried failure).
	pWave := 1 - math.Pow(1-exposure, n)
	waveT := (c.Time - w.Startup).Seconds() / 2
	if waveT <= 0 {
		return SpeculationDecision{Reason: "degenerate plan time"}
	}
	// Without mitigation the stalled wave finishes at ~slow x its
	// service time; with it, at ~service time plus detection.
	tailSeconds := 2 * pWave * (slow - 1) * waveT
	const backupFrac = 1 - faas.SpeculationQuantile
	backups := int(math.Ceil(backupFrac*n)) * 2
	dupUSD := env.Prices.FunctionsCost(functionUse(env, backups, waveT, backups))
	if obj.Goal == MinCost {
		// Stragglers bill their own slowdown; speculation trades that
		// billed tail for the duplicates' spend.
		savedUSD := env.Prices.FunctionsCost(functionUse(env, 1, 2*exposure*n*(slow-1)*waveT, 0))
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

// enumerate predicts every configuration, in deterministic order. A
// non-empty reason marks the function families dead on arrival: they
// become infeasible rows that say why.
func enumerate(w Workload, env Env) []Candidate {
	var cands []Candidate
	functionFamilies := func(n int, reason string) {
		add := func(s Strategy, predict func() Candidate) {
			if reason != "" {
				cands = append(cands, Candidate{Strategy: s, Workers: n, Reason: reason})
				return
			}
			cands = append(cands, predict())
		}
		if !env.NoObjectStorage {
			add(ObjectStorage, func() Candidate { return predictObjectStorage(n, w, env) })
		}
		if !env.NoHierarchical && (n >= 4 || reason != "") {
			add(Hierarchical, func() Candidate { return predictHierarchical(n, w, env) })
		}
		if env.HasCache {
			add(CacheBacked, func() Candidate { return predictCache(n, false, w, env) })
			// Multi-zone variant: the same cluster spread across the
			// env's zones, trading a cross-zone premium for a 1/Zones
			// outage blast radius. Only meaningful with 2+ zones.
			if env.Zones > 1 {
				add(CacheBacked, func() Candidate { return predictCache(n, true, w, env) })
			}
		}
	}
	ladder, dead := workerLadder(w)
	for _, n := range ladder {
		functionFamilies(n, dead)
	}
	// A session's standing instance overrides the profile's pinned
	// type: the already-paid machine is the one to consider, whatever
	// the profile would have provisioned.
	vmPin := env.VM.InstanceType
	if env.VMStandingType != "" {
		vmPin = env.VMStandingType
	}
	for _, it := range env.VMTypes {
		if vmPin != "" && it.Name != vmPin {
			continue
		}
		cands = append(cands, predictVM(it, false, w, env))
		// Spot variant: same machine, interruptible price, expected
		// rework under its InterruptRate. A standing instance is
		// already running (and already paid for), so no spot variant.
		if it.SpotHourlyUSD > 0 && env.VMStandingType == "" {
			cands = append(cands, predictVM(it, true, w, env))
		}
	}
	return cands
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
		if c.Time > obj.TimeBound {
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
