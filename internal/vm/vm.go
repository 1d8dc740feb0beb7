// Package vm simulates IaaS virtual server provisioning in the mold of
// IBM Virtual Server Instances: an instance catalog, minute-scale boot
// latency, vCPU-bounded local parallelism, a NIC bandwidth ceiling for
// staging data in and out of object storage, and per-second billing.
//
// This is the "serverful" side of the paper's comparison: the hybrid
// pipeline provisions a bx2-8x32, funnels the whole dataset through its
// single NIC, sorts locally, and writes the result back.
//
// Spot capacity (ProvisionSpot, at the catalog's SpotHourlyUSD: 30% of
// on-demand in the bx2 family) can be taken back. Preempt puts the
// notice on record at once and reclaims the instance PreemptionNotice
// later unless its owner stops it first; work dispatched after the
// reclaim fails with ErrPreempted, which wraps ErrStopped, and billing
// runs to the reclaim. FailZone reclaims a zone's spot instances with
// no notice, while on-demand ones ride the outage out, and the
// provisioner refuses with ErrNoZone while every zone is down.
package vm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

var (
	// ErrUnknownInstanceType is returned for profiles not in the catalog.
	ErrUnknownInstanceType = errors.New("vm: unknown instance type")
	// ErrStopped is returned for operations on a stopped instance.
	ErrStopped = errors.New("vm: instance is stopped")
	// ErrPreempted is returned for operations on an instance the
	// provider reclaimed. It unwraps to ErrStopped so existing
	// stopped-instance handling still fires.
	ErrPreempted = fmt.Errorf("%w: spot capacity preempted", ErrStopped)
	// ErrNoSpotPrice is returned when ProvisionSpot is asked for a type
	// with no spot market.
	ErrNoSpotPrice = errors.New("vm: instance type has no spot price")
	// ErrNoZone is returned when every configured zone is down and no
	// capacity pool can host a new instance.
	ErrNoZone = errors.New("vm: no zone has available capacity")
)

// PreemptionNotice is the warning window between a preemption signal
// and the instance being reclaimed, mirroring the ~30 s notice real
// spot/preemptible offerings give.
const PreemptionNotice = 30 * time.Second

// InstanceType describes one catalog entry.
type InstanceType struct {
	// Name is the provider profile name, e.g. "bx2-8x32".
	Name string
	// VCPUs bounds local task parallelism.
	VCPUs int
	// MemoryGB is the instance RAM (the sort must fit in it).
	MemoryGB int
	// HourlyUSD is the on-demand price, billed per second.
	HourlyUSD float64
	// BootTime is the provision-to-ready latency.
	BootTime time.Duration
	// NICBandwidth is the instance network ceiling in bytes/second.
	NICBandwidth float64
	// SpotHourlyUSD is the interruptible-capacity price (0: no spot
	// market for this type).
	SpotHourlyUSD float64
	// InterruptRate is the expected spot interruptions per hour of
	// runtime, the Poisson rate the failure-aware planner prices
	// expected rework against.
	InterruptRate float64
}

// Catalog returns the built-in instance catalog, modeled on the IBM
// bx2 (balanced) family. Boot times reflect provision-from-scratch as
// a workflow engine like Lithops experiences it (image pull + cloud
// orchestration + agent start), which is the dominant cost the paper's
// hybrid configuration pays.
func Catalog() []InstanceType {
	return []InstanceType{
		{Name: "bx2-2x8", VCPUs: 2, MemoryGB: 8, HourlyUSD: 0.0960, BootTime: 42 * time.Second, NICBandwidth: 0.5e9, SpotHourlyUSD: 0.0288, InterruptRate: 0.05},
		{Name: "bx2-4x16", VCPUs: 4, MemoryGB: 16, HourlyUSD: 0.1920, BootTime: 45 * time.Second, NICBandwidth: 1.0e9, SpotHourlyUSD: 0.0576, InterruptRate: 0.05},
		{Name: "bx2-8x32", VCPUs: 8, MemoryGB: 32, HourlyUSD: 0.3840, BootTime: 48 * time.Second, NICBandwidth: 2.0e9, SpotHourlyUSD: 0.1152, InterruptRate: 0.05},
		{Name: "bx2-16x64", VCPUs: 16, MemoryGB: 64, HourlyUSD: 0.7680, BootTime: 52 * time.Second, NICBandwidth: 4.0e9, SpotHourlyUSD: 0.2304, InterruptRate: 0.08},
		{Name: "bx2-32x128", VCPUs: 32, MemoryGB: 128, HourlyUSD: 1.5360, BootTime: 58 * time.Second, NICBandwidth: 8.0e9, SpotHourlyUSD: 0.4608, InterruptRate: 0.12},
	}
}

// Provisioner creates instances on a simulation.
type Provisioner struct {
	sim     *des.Sim
	catalog map[string]InstanceType

	zones cloud.Zones
	// instances are every instance provisioned, and each scope's own.
	instances des.Ledger[[]*Instance]
}

// NewProvisioner returns a provisioner with the built-in catalog.
func NewProvisioner(sim *des.Sim) *Provisioner {
	return NewProvisionerWithCatalog(sim, Catalog())
}

// NewProvisionerWithCatalog returns a provisioner with a custom
// catalog (used by calibration profiles).
func NewProvisionerWithCatalog(sim *des.Sim, types []InstanceType) *Provisioner {
	cat := make(map[string]InstanceType, len(types))
	for _, it := range types {
		cat[it.Name] = it
	}
	return &Provisioner{sim: sim, catalog: cat}
}

// Zones returns where new instances land: none (ErrNoZone) if all down.
func (pr *Provisioner) Zones() *cloud.Zones { return &pr.zones }

// FailZone takes a whole capacity pool down: every running spot
// instance placed in the zone is reclaimed immediately (a zone outage
// gives no notice window), and new provisioning avoids the zone until
// Zones().RestoreZone. On-demand instances ride out the outage: the model
// follows real spot markets, where interruptible capacity is the first
// thing a constrained pool sheds. Returns the number of instances
// reclaimed.
func (pr *Provisioner) FailZone(zone string) int {
	pr.zones.Fail(zone)
	n := 0
	for _, inst := range pr.instances.Total {
		if inst.zone == zone && inst.spot && !inst.Stopped() {
			inst.Reclaim()
			n++
		}
	}
	return n
}

// Types returns the provisioner's catalog, sorted by memory then name
// so enumeration (the auto-planner sweeps it) is deterministic.
func (pr *Provisioner) Types() []InstanceType {
	out := make([]InstanceType, 0, len(pr.catalog))
	for _, it := range pr.catalog {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MemoryGB != out[j].MemoryGB {
			return out[i].MemoryGB < out[j].MemoryGB
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LookupType returns the catalog entry for name.
func (pr *Provisioner) LookupType(name string) (InstanceType, error) {
	it, ok := pr.catalog[name]
	if !ok {
		return InstanceType{}, fmt.Errorf("%w: %s", ErrUnknownInstanceType, name)
	}
	return it, nil
}

// Provision boots an instance of the named type, blocking p for the
// boot latency, and returns the running instance.
func (pr *Provisioner) Provision(p *des.Proc, typeName string) (*Instance, error) {
	return pr.provision(p, typeName, false)
}

// ProvisionSpot boots an interruptible instance of the named type,
// billed at the type's spot rate. Spot instances can be reclaimed by
// the provider (see Instance.Preempt); callers must be prepared to
// restart lost work elsewhere.
func (pr *Provisioner) ProvisionSpot(p *des.Proc, typeName string) (*Instance, error) {
	return pr.provision(p, typeName, true)
}

func (pr *Provisioner) provision(p *des.Proc, typeName string, spot bool) (*Instance, error) {
	it, err := pr.LookupType(typeName)
	if err != nil {
		return nil, err
	}
	if spot && it.SpotHourlyUSD <= 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSpotPrice, typeName)
	}
	if _, ok := pr.zones.Pick(); !ok {
		return nil, ErrNoZone
	}
	p.Sleep(it.BootTime)
	// Re-pick after the boot wait so the instance lands in a zone that
	// is still up at readiness; a zone that failed mid-boot would have
	// rejected the request.
	zone, ok := pr.zones.Pick()
	if !ok {
		return nil, ErrNoZone
	}
	inst := &Instance{
		lease:    cloud.NewLease(pr.sim, pr.sim.Now()-it.BootTime),
		sim:      pr.sim,
		itype:    it,
		spot:     spot,
		zone:     zone,
		bootedAt: pr.sim.Now(),
		cpus:     des.NewResource(pr.sim, int64(it.VCPUs)),
	}
	pr.instances.Charge(p, func(l *[]*Instance) { *l = append(*l, inst) })
	return inst, nil
}

// Instances returns all instances ever provisioned (for billing).
func (pr *Provisioner) Instances() []*Instance {
	out := make([]*Instance, len(pr.instances.Total))
	copy(out, pr.instances.Total)
	return out
}

// Ledger returns the instances provisioned, per scope as well as in all.
func (pr *Provisioner) Ledger() *des.Ledger[[]*Instance] { return &pr.instances }

// lease names the embedded cloud.Lease so that its field is unexported.
type lease = cloud.Lease

// Instance is a running (or stopped) virtual server.
type Instance struct {
	lease
	sim      *des.Sim
	itype    InstanceType
	bootedAt time.Duration

	spot      bool
	zone      string
	noticed   bool // preemption notice delivered, reclaim pending
	preempted bool

	cpus *des.Resource
}

// Type returns the instance's catalog entry.
func (i *Instance) Type() InstanceType { return i.itype }

// BootedAt reports when the instance became ready.
func (i *Instance) BootedAt() time.Duration { return i.bootedAt }

// Spot reports whether the instance runs on interruptible capacity.
func (i *Instance) Spot() bool { return i.spot }

// Zone reports the placement domain the instance was provisioned in.
func (i *Instance) Zone() string { return i.zone }

// Preempted reports whether the provider reclaimed the instance.
func (i *Instance) Preempted() bool { return i.preempted }

// PreemptionNoticed reports whether a preemption notice has been
// delivered (the instance may still be inside its notice window).
func (i *Instance) PreemptionNoticed() bool { return i.noticed }

// Preempt delivers a preemption signal: the notice is on record now
// (PreemptionNoticed) and the instance is reclaimed (stopped, billing ends) PreemptionNotice
// later unless the owner stops it first. Safe to call from event
// context; idempotent, and a no-op on already-stopped instances.
func (i *Instance) Preempt() {
	if i.Stopped() || i.noticed {
		return
	}
	i.noticed = true
	i.sim.After(PreemptionNotice, func() {
		if i.Stopped() {
			return
		}
		i.preempted = true
		i.Stop()
	})
}

// Reclaim takes the instance away immediately: there is no warning
// window — the shape of a zone outage, where the
// whole pool disappears at once. Idempotent; a no-op on stopped
// instances.
func (i *Instance) Reclaim() {
	if i.Stopped() {
		return
	}
	i.noticed = true
	i.preempted = true
	i.Stop()
}

// HourlyRate reports the rate the instance bills at: the spot price
// for interruptible capacity, the on-demand price otherwise.
func (i *Instance) HourlyRate() float64 {
	if i.spot {
		return i.itype.SpotHourlyUSD
	}
	return i.itype.HourlyUSD
}

// CostAt reports the cost in USD the instance had accumulated as of the
// instant at, at per-second granularity and at the instance's capacity
// class rate.
func (i *Instance) CostAt(at time.Duration) float64 {
	return i.BilledDurationAt(at).Seconds() * i.HourlyRate() / 3600
}

// err reports the instance's terminal state as an error, nil while
// usable.
func (i *Instance) err() error {
	if i.preempted {
		return ErrPreempted
	}
	if i.Stopped() {
		return ErrStopped
	}
	return nil
}

// RunTask consumes cpuTime of one vCPU, queueing if all vCPUs are
// busy. It is the building block for local parallelism. Work that was
// in flight when the provider reclaimed the instance is lost:
// RunTask reports ErrPreempted even when the reclaim landed mid-task.
func (i *Instance) RunTask(p *des.Proc, cpuTime time.Duration) error {
	if err := i.err(); err != nil {
		return err
	}
	i.cpus.Acquire(p, 1)
	defer i.cpus.Release(1)
	if cpuTime > 0 {
		p.Sleep(cpuTime)
	}
	if i.preempted {
		return ErrPreempted
	}
	return nil
}

// RunParallel executes n tasks of cpuTime each across the instance's
// vCPUs and blocks p until all complete.
func (i *Instance) RunParallel(p *des.Proc, n int, cpuTime time.Duration) error {
	if err := i.err(); err != nil {
		return err
	}
	// A task's own error is the instance's state, read below.
	_ = p.Fan(n, i.itype.Name+"/task", func(_ int, tp *des.Proc) error {
		return i.RunTask(tp, cpuTime)
	})
	if i.preempted {
		return ErrPreempted
	}
	return nil
}

// StorageClient returns an object storage client whose transfers are
// additionally capped by the instance NIC share for the given number
// of concurrent connections the caller intends to open. Transfers
// still pay the store-side per-connection ceiling, whichever is lower.
func (i *Instance) StorageClient(svc *objectstore.Service, conns int) *objectstore.Client {
	if conns < 1 {
		conns = 1
	}
	c := objectstore.NewClient(svc)
	return c.WithFlowCap(i.itype.NICBandwidth / float64(conns))
}
