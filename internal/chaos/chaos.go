// Package chaos injects deterministic, clock-driven faults into a
// simulation: spot-VM preemptions, cache-node failures, object storage
// brownout windows, and whole-zone outages that take a correlated
// failure domain down at once. A Plan is a schedule of timed events
// armed against the live resource layers; because the simulation clock
// is deterministic, the same Plan over the same workload reproduces
// the same failure exactly — the property a chaos suite needs to
// assert recovery behavior rather than merely observe it. Plans can be
// hand-written or expanded from a seeded stochastic Process (per-class
// Poisson rates over the deterministic clock), so soak runs get
// realistic arrival statistics without giving up reproducibility.
//
// The package is pure middleware in the ALTK sense: detection and
// degradation policy live in the data plane (the exchanges), pricing
// of failure risk lives in the planner (autoplan), and this package
// only owns *when* faults happen and the record of what fired.
//
// Plan.Arm(sim, Targets{VMs, Cache, Store}) aims the events at those
// layers, each with its own failure protocol: a spot preemption is
// vm.Instance.Preempt, a cache-node loss memcache.Cluster.KillNode, a
// brownout objectstore.Service.SetBrownout, which a ClientStream
// absorbs by retrying each failed continuation under a retry budget
// that refills after every delivered chunk. Every provisioned resource
// carries a zone label (Profile.Zones; the first zone hosts everything,
// the store's bandwidth pool included, until an outage forces placement
// elsewhere), and a ZoneOutage reaches each provider through its
// FailZone and ends with Zones().RestoreZone.
//
// Recovery is the exchanges': core.VMExchange{Spot: true} tries the
// spot rate on the first attempt only and restarts a preempted staged
// sort on a fresh on-demand instance, in a surviving zone; the cache
// exchange reroutes a write to a dead shard to the object store and
// regenerates a lost slab from the staged input, and demotes to the
// object-store path when the whole cluster dies. Stage reports meter
// the damage (Restarts, ReworkBytes, FallbackSlabs); makespan degrades
// by the fallback bandwidth gap, not to zero.
//
// Planning prices the same risks. A spot candidate costs the spot rate
// plus expected rework (interrupt probability over its makespan times
// the restart), zone outages add to that interrupt rate, and their
// brownout windows charge every store-touching leg an expected stall
// and re-bill; the cache's w² hop is exempt, which is what trades
// substrates under outage risk. With Env.Zones > 1 every cache rung
// also gets a multi-zone variant that pays cross-zone RTT and per-GB
// fees for a 1/Zones blast radius. Serverless waves get speculation
// (Spec.Speculate) where straggler exposure warrants backups, priced at
// the 1 - faas.SpeculationQuantile share faas.MapSpeculative backs up.
// experiments.SpotDecisionFlip and ZonePlacementFlip sweep the rates
// for the flip points, and ChaosMatrix and ZoneChaos run every strategy
// x fault cell end to end, a soak replayed byte-identically from the
// same seed.
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/vm"
)

var (
	// ErrNegativeTime rejects events scheduled before t=0.
	ErrNegativeTime = errors.New("chaos: negative event time")
	// ErrBadRate rejects failure rates outside [0, 1].
	ErrBadRate = errors.New("chaos: rate outside [0, 1]")
	// ErrBadDuration rejects windowed events without an explicit
	// positive window — the old silent one-minute default is gone.
	ErrBadDuration = errors.New("chaos: windowed event needs a positive Duration")
	// ErrBadNode rejects negative cache node indexes.
	ErrBadNode = errors.New("chaos: negative cache node index")
	// ErrBadZone rejects zone outages without a zone label.
	ErrBadZone = errors.New("chaos: zone outage needs a Zone label")
)

// Kind enumerates the fault classes.
type Kind int

const (
	// PreemptVM reclaims a running VM instance (spot instances first;
	// the provider prefers reclaiming interruptible capacity).
	PreemptVM Kind = iota
	// KillCacheNode fails one node of the most recent running cache
	// cluster, losing its shard's data.
	KillCacheNode
	// StoreBrownout raises the object store's failure rate to
	// Event.Rate for Event.Duration, then restores it.
	StoreBrownout
	// ZoneOutage fails the whole placement domain named by Event.Zone
	// for Event.Duration: every running spot instance in the zone is
	// reclaimed at once (no notice window), every cache cluster hosted
	// there loses all its nodes, and — when the store's bandwidth pool
	// lives in (or is not pinned to) the zone — a correlated brownout
	// at Event.Rate opens for the outage window. Provisioning avoids
	// the zone until the window closes.
	ZoneOutage
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case PreemptVM:
		return "preempt-vm"
	case KillCacheNode:
		return "kill-cache-node"
	case StoreBrownout:
		return "store-brownout"
	case ZoneOutage:
		return "zone-outage"
	default:
		return fmt.Sprintf("chaos.Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the simulation time the fault fires.
	At time.Duration
	// Kind selects the fault class.
	Kind Kind
	// Node selects the cache node index for KillCacheNode. Negative
	// indexes are rejected by Validate; indexes beyond the live
	// cluster's size wrap onto the last node at fire time (the cluster
	// size is unknown until then).
	Node int
	// Duration bounds a StoreBrownout or ZoneOutage window.
	Duration time.Duration
	// Rate is the failure probability per store request during a
	// StoreBrownout, or the correlated brownout severity during a
	// ZoneOutage (0: the outage does not touch the store).
	Rate float64
	// Zone names the placement domain a ZoneOutage takes down.
	Zone string
}

// Plan is a deterministic fault schedule.
type Plan struct {
	Events []Event
}

// EventError reports which event of a plan failed validation and why.
// It unwraps to one of the Err* sentinels.
type EventError struct {
	Index int
	Event Event
	Err   error
}

func (e *EventError) Error() string {
	return fmt.Sprintf("chaos: event %d (%s at %s): %v", e.Index, e.Event.Kind, e.Event.At, e.Err)
}

func (e *EventError) Unwrap() error { return e.Err }

// Validate checks every event for structural problems a fire-time
// no-op would hide: negative schedule times, rates outside [0, 1],
// windowed events without an explicit positive Duration (the old code
// silently defaulted to a minute), negative cache node indexes (the
// old code silently clamped them to 0), and zone outages without a
// zone. Returns the first offending event as an *EventError.
func (p *Plan) Validate() error {
	for i, ev := range p.Events {
		fail := func(err error) error { return &EventError{Index: i, Event: ev, Err: err} }
		if ev.At < 0 {
			return fail(ErrNegativeTime)
		}
		if !(ev.Rate >= 0 && ev.Rate <= 1) { // NaN is outside too
			return fail(ErrBadRate)
		}
		switch ev.Kind {
		case KillCacheNode:
			if ev.Node < 0 {
				return fail(ErrBadNode)
			}
		case StoreBrownout:
			if ev.Duration <= 0 {
				return fail(ErrBadDuration)
			}
		case ZoneOutage:
			if ev.Zone == "" {
				return fail(ErrBadZone)
			}
			if ev.Duration <= 0 {
				return fail(ErrBadDuration)
			}
		}
	}
	return nil
}

// Targets names the live resource layers a Plan arms against. Nil
// fields make the corresponding fault classes no-ops.
type Targets struct {
	VMs   *vm.Provisioner
	Cache *memcache.Provisioner
	Store *objectstore.Service
}

// Fired records one event's outcome, for experiment reports.
type Fired struct {
	Event   Event
	Outcome string
}

// Armed is a Plan scheduled onto a simulation.
type Armed struct {
	fired []Fired
}

// Fired returns the log of events that have fired so far, in firing
// order, with a human-readable outcome each.
func (a *Armed) Fired() []Fired {
	out := make([]Fired, len(a.fired))
	copy(out, a.fired)
	return out
}

// String renders the fired log.
func (a *Armed) String() string {
	var b strings.Builder
	for _, f := range a.fired {
		fmt.Fprintf(&b, "t=%-8s %-16s %s\n", f.Event.At, f.Event.Kind, f.Outcome)
	}
	return b.String()
}

// Arm validates the plan, schedules every event onto sim against the
// given targets, and returns the armed record. Events that fire after
// the simulation drains simply never run; events aimed at resources
// that do not exist at fire time record a no-op outcome. Arm may be
// called before or during a run (event times in the past fire
// immediately on the next dispatch). A plan that fails Validate arms
// nothing.
func (p *Plan) Arm(sim *des.Sim, t Targets) (*Armed, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &Armed{}
	for _, ev := range p.Events {
		ev := ev
		sim.Schedule(ev.At, func() {
			a.fired = append(a.fired, Fired{Event: ev, Outcome: fire(sim, ev, t)})
		})
	}
	return a, nil
}

// brownoutWindow opens a brownout on store and schedules its close,
// guarded by the store's generation counter so an overlapping later
// window (or a manual SetBrownout) is not clobbered when this one's
// timer fires.
func brownoutWindow(sim *des.Sim, store *objectstore.Service, rate float64, d time.Duration) {
	store.SetBrownout(rate)
	gen := store.BrownoutGen()
	sim.After(d, func() {
		if store.BrownoutGen() == gen {
			store.SetBrownout(0)
		}
	})
}

// fire executes one event and describes what happened.
func fire(sim *des.Sim, ev Event, t Targets) string {
	switch ev.Kind {
	case PreemptVM:
		if t.VMs == nil {
			return "no-op: no VM provisioner"
		}
		inst := pickVictim(t.VMs)
		if inst == nil {
			return "no-op: no running instance"
		}
		inst.Preempt()
		class := "on-demand"
		if inst.Spot() {
			class = "spot"
		}
		return fmt.Sprintf("preempting %s %s (notice %s)", class, inst.Type().Name, vm.PreemptionNotice)
	case KillCacheNode:
		if t.Cache == nil {
			return "no-op: no cache provisioner"
		}
		cl := runningCluster(t.Cache)
		if cl == nil {
			return "no-op: no running cluster"
		}
		idx := ev.Node // Validate rejected negative indexes at arm time
		if idx >= cl.Nodes() {
			idx = cl.Nodes() - 1
		}
		if cl.NodeDown(idx) {
			return fmt.Sprintf("no-op: node %d already down", idx)
		}
		cl.KillNode(idx)
		return fmt.Sprintf("killed node %d of %d", idx, cl.Nodes())
	case StoreBrownout:
		if t.Store == nil {
			return "no-op: no object store"
		}
		brownoutWindow(sim, t.Store, ev.Rate, ev.Duration)
		return fmt.Sprintf("brownout rate=%.2f for %s", ev.Rate, ev.Duration)
	case ZoneOutage:
		var parts []string
		if t.VMs != nil {
			n := t.VMs.FailZone(ev.Zone)
			sim.After(ev.Duration, func() { t.VMs.Zones().RestoreZone(ev.Zone) })
			parts = append(parts, fmt.Sprintf("reclaimed %d spot instance(s)", n))
		}
		if t.Cache != nil {
			n := t.Cache.FailZone(ev.Zone)
			sim.After(ev.Duration, func() { t.Cache.Zones().RestoreZone(ev.Zone) })
			parts = append(parts, fmt.Sprintf("killed %d cache cluster(s)", n))
		}
		// The store's bandwidth pool browns out when it lives in the
		// failed zone — or is not pinned to any zone, so every outage
		// correlates with it.
		if t.Store != nil && ev.Rate > 0 && (t.Store.Zone() == "" || t.Store.Zone() == ev.Zone) {
			brownoutWindow(sim, t.Store, ev.Rate, ev.Duration)
			parts = append(parts, fmt.Sprintf("store brownout rate=%.2f", ev.Rate))
		}
		if len(parts) == 0 {
			return fmt.Sprintf("no-op: no targets in zone %s", ev.Zone)
		}
		return fmt.Sprintf("zone %s out for %s: %s", ev.Zone, ev.Duration, strings.Join(parts, ", "))
	default:
		return fmt.Sprintf("no-op: unknown kind %d", int(ev.Kind))
	}
}

// pickVictim chooses the most recently provisioned running spot
// instance, falling back to the most recent running instance of any
// class — a provider reclaims interruptible capacity first.
func pickVictim(pr *vm.Provisioner) *vm.Instance {
	insts := pr.Instances()
	var anyRunning *vm.Instance
	for i := len(insts) - 1; i >= 0; i-- {
		inst := insts[i]
		if inst.Stopped() || inst.PreemptionNoticed() {
			continue
		}
		if inst.Spot() {
			return inst
		}
		if anyRunning == nil {
			anyRunning = inst
		}
	}
	return anyRunning
}

// runningCluster returns the most recently provisioned cluster still
// running, or nil.
func runningCluster(pr *memcache.Provisioner) *memcache.Cluster {
	cls := pr.Clusters()
	for i := len(cls) - 1; i >= 0; i-- {
		if !cls[i].Stopped() {
			return cls[i]
		}
	}
	return nil
}
