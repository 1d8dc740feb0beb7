package calib

import (
	"fmt"
	"strings"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// Rig is a fully wired simulated cloud built from a Profile: the
// shared setup of every experiment, example, and integration test.
type Rig struct {
	Profile   Profile
	Sim       *des.Sim
	Store     *objectstore.Service
	Platform  *faas.Platform
	Prov      *vm.Provisioner
	CacheProv *memcache.Provisioner
	Shuffle   *shuffle.Operator
	// CacheOp is Shuffle, for callers of CacheOperator.Sort.
	//
	// Deprecated: use Shuffle with Spec.Exchange ViaCache (ROADMAP K.2).
	CacheOp *shuffle.CacheOperator
	Exec    *core.Executor

	// History accumulates measured predicted-vs-actual outcomes for the
	// auto-planner. NewRig starts it empty; a Session keeps the rig —
	// and with it this history — alive across submissions, so every
	// plan after the first is calibrated by what actually happened.
	History *autoplan.History
}

// NewRig builds the simulated cloud for a profile.
func NewRig(p Profile) (*Rig, error) {
	sim := des.New(p.Seed)
	store, err := objectstore.New(sim, p.Store)
	if err != nil {
		return nil, fmt.Errorf("calib: store: %w", err)
	}
	platform, err := faas.New(sim, store, p.Faas)
	if err != nil {
		return nil, fmt.Errorf("calib: platform: %w", err)
	}
	cacheProv, err := memcache.NewProvisioner(sim, p.Cache)
	if err != nil {
		return nil, fmt.Errorf("calib: cache: %w", err)
	}
	op, err := shuffle.NewOperator(platform, store, cacheProv)
	if err != nil {
		return nil, fmt.Errorf("calib: shuffle: %w", err)
	}
	var prov *vm.Provisioner
	if len(p.VMTypes) > 0 {
		prov = vm.NewProvisionerWithCatalog(sim, p.VMTypes)
	} else {
		prov = vm.NewProvisioner(sim)
	}
	if len(p.Zones) > 0 {
		prov.SetZones(p.Zones...)
		cacheProv.SetZones(p.Zones...)
		// The store's bandwidth pool lives with the primary zone: its
		// outage browns the endpoint out, a correlated loss.
		store.SetZone(p.Zones[0])
	}
	exec := core.NewExecutor(sim, store, platform, prov, op, p.Prices)
	exec.CacheProv = cacheProv
	return &Rig{
		Profile:   p,
		Sim:       sim,
		Store:     store,
		Platform:  platform,
		Prov:      prov,
		CacheProv: cacheProv,
		Shuffle:   op,
		CacheOp:   &shuffle.CacheOperator{Operator: op},
		Exec:      exec,
		History:   autoplan.NewHistory(),
	}, nil
}

// Run drives the rig's simulation until it drains, like Sim.Run, and
// then asks the store what the kernel cannot see: a store stream is a
// state machine, not a process, so one that was opened and neither read
// to its end nor closed parks nothing and Sim.Run returns nil over it.
// Run turns it into the error a parked producer process used to be.
func (r *Rig) Run() error {
	if err := r.Sim.Run(); err != nil {
		return err
	}
	if open := r.Store.OpenStreams(); len(open) > 0 {
		return fmt.Errorf("calib: %d store stream(s) neither drained nor closed: %s",
			len(open), strings.Join(open, ", "))
	}
	return nil
}

// SortParams derives the standard sort-stage parameters for this
// profile and dataset location.
func (r *Rig) SortParams(inBucket, inKey, outBucket, outPrefix string, workers int) core.SortParams {
	return core.SortParams{
		InputBucket:  inBucket,
		InputKey:     inKey,
		OutputBucket: outBucket,
		OutputPrefix: outPrefix,
		Workers:      workers,
		MemoryMB:     r.Profile.Faas.MemoryMB,
		Plan:         PlanInput(r.Profile, 0),
	}
}

// VMStrategy builds the profile's VM exchange strategy. When a session
// has handed the executor a standing instance the sort stages through
// that instead of provisioning.
func (r *Rig) VMStrategy() *core.VMExchange {
	return &core.VMExchange{
		InstanceType: r.Profile.InstanceType,
		Setup:        r.Profile.VMSetup,
		SortBps:      r.Profile.VMSortBps,
		Conns:        r.Profile.VMConns,
	}
}

// CacheStrategy builds the profile's cache exchange strategy. warm
// models a pre-provisioned cluster (no spin-up latency). A standing
// cluster a session has handed the executor takes precedence over
// per-job provisioning.
func (r *Rig) CacheStrategy(warm bool) *core.CacheExchange {
	return &core.CacheExchange{Nodes: r.Profile.CacheNodes, Warm: warm}
}

// AutoStrategy builds the profile's planner-backed strategy: the
// cost-based seer that picks exchange family and configuration per
// job, calibrated by the rig's measured history. The zero objective
// minimizes predicted completion time.
func (r *Rig) AutoStrategy(obj autoplan.Objective) *core.AutoExchange {
	env := PlanEnv(r.Profile)
	env.History = r.History
	return &core.AutoExchange{
		Objective: obj,
		Env:       env,
		VM:        *r.VMStrategy(),
	}
}

// PlanInput is the one mapping from a profile and a volume to the
// shuffle planner's input; every other planner input is derived from it.
func PlanInput(p Profile, dataBytes int64) shuffle.PlanInput {
	return shuffle.PlanInput{
		DataBytes:      dataBytes,
		MaxWorkers:     256,
		WorkerMemBytes: int64(p.Faas.MemoryMB) << 20,
		PartitionBps:   p.PartitionBps,
		MergeBps:       p.MergeBps,
		Startup:        p.Faas.ColdStart,
	}
}

// PlanWorkload derives the auto-planner's workload for this profile
// and volume.
func PlanWorkload(p Profile, dataBytes int64) autoplan.Workload {
	return autoplan.Workload{PlanInput: PlanInput(p, dataBytes)}
}

// PlanEnv converts a profile into the auto-planner's priced cloud: the
// only place an autoplan.Env is built. A rig's services are built from
// the same profile, so this is also what a live run executes against.
func PlanEnv(p Profile) autoplan.Env {
	types := p.VMTypes
	if len(types) == 0 {
		types = vm.Catalog()
	}
	return autoplan.Env{
		Store:            shuffle.ProfileOf(p.Store),
		FunctionMemoryMB: p.Faas.MemoryMB,
		Prices:           p.Prices,
		HasCache:         p.Cache.NodeMemoryBytes > 0,
		Cache:            p.Cache,
		CacheMaxNodes:    p.CacheMaxNodes,
		VMTypes:          types,
		VMInstanceType:   p.InstanceType,
		VMSetup:          p.VMSetup,
		VMSortBps:        p.VMSortBps,
		VMConns:          p.VMConns,

		FaasFailureRate:       p.Faas.FailureRate,
		FaasStragglerRate:     p.Faas.StragglerRate,
		FaasStragglerSlowdown: p.Faas.StragglerSlowdown,

		BrownoutPerHour:   p.BrownoutPerHour,
		BrownoutRate:      p.BrownoutRate,
		BrownoutDuration:  p.BrownoutDuration,
		ZoneOutagePerHour: p.ZoneOutagePerHour,
		Zones:             len(p.Zones),
	}
}
