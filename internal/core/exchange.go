package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// SortParams configure a sort stage, independent of strategy.
type SortParams struct {
	// InputBucket/InputKey locate the unsorted dataset.
	InputBucket, InputKey string
	// OutputBucket/OutputPrefix receive the sorted parts.
	OutputBucket, OutputPrefix string
	// Workers is the parallelism degree (output part count). 0 lets
	// the object-storage strategy plan it; the VM strategy requires an
	// explicit value (it fixes the downstream fan-out).
	Workers int
	// MemoryMB overrides function memory for shuffle workers.
	MemoryMB int
	// Plan is what the planners size the job with: the worker bounds,
	// the per-worker compute throughputs and the startup estimate
	// (calib.PlanInput of the profile). DataBytes is left zero: the
	// stage learns the volume from the input's Head.
	Plan shuffle.PlanInput
	// MaxRetries re-attempts shuffle invocations lost to transient
	// platform failures.
	MaxRetries int
	// Speculate enables straggler speculation for shuffle waves.
	Speculate bool
	// Hierarchical switches the object-storage exchange to the
	// two-level shuffle (Groups of ~sqrt(workers) unless set).
	Hierarchical bool
	// Groups is the two-level group count (0 = auto divisor near
	// sqrt(workers)); ignored unless Hierarchical.
	Groups int
}

// spec converts the params into the operator's common job spec.
func (p SortParams) spec() shuffle.Spec {
	return shuffle.Spec{
		InputBucket:    p.InputBucket,
		InputKey:       p.InputKey,
		OutputBucket:   p.OutputBucket,
		OutputPrefix:   p.OutputPrefix,
		Workers:        p.Workers,
		MaxWorkers:     p.Plan.MaxWorkers,
		WorkerMemBytes: p.Plan.WorkerMemBytes,
		PartitionBps:   p.Plan.PartitionBps,
		MergeBps:       p.Plan.MergeBps,
		Startup:        p.Plan.Startup,
		MemoryMB:       p.MemoryMB,
		MaxRetries:     p.MaxRetries,
		Speculate:      p.Speculate,
	}
}

// SortOutcome reports a completed sort.
type SortOutcome struct {
	// OutputKeys are the sorted part keys in global order.
	OutputKeys []string
	// Workers is the parallelism used.
	Workers int
	// StageOutcome is the sort's record for its StageReport: the
	// exchange trace and the failure recovery absorbed to finish (VM
	// preemption restarts, cache slab regeneration waves, re-staged and
	// regenerated bytes, slabs rerouted through object storage).
	StageOutcome
}

// ExchangeStrategy is how a sort stage moves and processes its data —
// the paper's experimental variable.
type ExchangeStrategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// RunSort performs the sort described by params.
	RunSort(ctx *StageContext, params SortParams) (SortOutcome, error)
}

// ObjectStorageExchange is the "purely serverless" strategy
// (Figure 1 B): an all-to-all shuffle between functions through the
// object store, using the Primula-style operator and its worker-count
// planner.
type ObjectStorageExchange struct{}

var _ ExchangeStrategy = ObjectStorageExchange{}

// Name implements ExchangeStrategy.
func (ObjectStorageExchange) Name() string { return "object-storage" }

// RunSort implements ExchangeStrategy.
func (ObjectStorageExchange) RunSort(ctx *StageContext, params SortParams) (SortOutcome, error) {
	if ctx.Exec.Shuffle == nil {
		return SortOutcome{}, errors.New("core: executor has no shuffle operator")
	}
	spec := params.spec()
	if params.Hierarchical {
		spec.Exchange, spec.Groups = shuffle.ViaStoreTwoLevel, params.Groups
	}
	res, err := ctx.Exec.Shuffle.Sort(ctx.Proc, spec)
	if err != nil {
		return SortOutcome{}, err
	}
	phase1, phase2 := res.Phase1.Round(time.Millisecond), res.Phase2.Round(time.Millisecond)
	var detail string
	if params.Hierarchical {
		detail = fmt.Sprintf("two-level shuffle via object storage: %d workers in %d groups, round1 %v, round2 %v",
			res.Workers, res.Groups, phase1, phase2)
	} else {
		detail = fmt.Sprintf("shuffle via object storage: %d workers, sample %v, phase1 %v, phase2 %v",
			res.Workers, res.Sample.Round(time.Millisecond), phase1, phase2)
	}
	return SortOutcome{OutputKeys: res.OutputKeys, Workers: res.Workers, StageOutcome: StageOutcome{Detail: detail}}, nil
}

// CacheExchange is the in-memory cache strategy the paper names in §1
// as the faster-but-pricier alternative to object storage (AWS
// ElastiCache): the all-to-all intermediates flow through a provisioned
// cache cluster while input and output stay in the object store.
type CacheExchange struct {
	// Nodes fixes the cluster size; 0 sizes it from the input volume.
	Nodes int
	// Warm skips the cluster spin-up latency, modeling a pre-provisioned
	// long-lived cluster (the latency-favorable ablation).
	Warm bool
}

var _ ExchangeStrategy = (*CacheExchange)(nil)

// Name implements ExchangeStrategy.
func (c *CacheExchange) Name() string {
	if c.Warm {
		return "cache-warm"
	}
	return "cache"
}

// RunSort implements ExchangeStrategy. When the executor holds a
// session's standing cluster the exchange flows through it instead of
// provisioning a per-job one (Nodes and Warm are ignored), the cluster
// is left running afterwards, and its node-hours are attributed by the
// session rather than to this stage.
func (c *CacheExchange) RunSort(ctx *StageContext, params SortParams) (SortOutcome, error) {
	if ctx.Exec.Shuffle == nil {
		return SortOutcome{}, errors.New("core: executor has no shuffle operator")
	}
	standing := ctx.Exec.StandingCache
	spec := params.spec()
	spec.Exchange = shuffle.ViaCache
	spec.Nodes, spec.Warm, spec.Cluster = c.Nodes, c.Warm, standing
	res, err := ctx.Exec.Shuffle.Sort(ctx.Proc, spec)
	if err != nil {
		return SortOutcome{}, err
	}
	via := "cache"
	if standing != nil {
		via = "standing cache"
	}
	detail := fmt.Sprintf("shuffle via %d-node %s: %d workers, provision %v, phase1 %v, phase2 %v",
		res.Nodes, via, res.Workers, res.Provision.Round(time.Millisecond),
		res.Phase1.Round(time.Millisecond), res.Phase2.Round(time.Millisecond))
	if res.FallbackSlabs > 0 || res.Restarts > 0 {
		detail += fmt.Sprintf(" (degraded: %d slab(s) via store, %d recovery wave(s))",
			res.FallbackSlabs, res.Restarts)
	}
	return SortOutcome{
		OutputKeys: res.OutputKeys,
		Workers:    res.Workers,
		StageOutcome: StageOutcome{
			Detail:        detail,
			Restarts:      res.Restarts,
			ReworkBytes:   res.ReworkBytes,
			FallbackSlabs: res.FallbackSlabs,
		},
	}, nil
}

// VMExchange is the "VM-supported" hybrid strategy (Figure 1 A): the
// dataset is funnelled into one large-memory instance through its NIC,
// sorted locally, and written back as parts.
type VMExchange struct {
	// InstanceType is the catalog profile to provision (the paper
	// uses bx2-8x32).
	InstanceType string
	// Setup is the post-boot runtime deployment time (the workflow
	// engine installs its agent on the fresh VM).
	Setup time.Duration
	// SortBps is the instance's aggregate local sort throughput.
	SortBps float64
	// Conns is the number of parallel storage connections used for
	// staging (bounded by vCPUs when zero).
	Conns int
	// Spot provisions interruptible capacity at the type's spot rate.
	// A preempted leg restarts on a fresh instance — on-demand for the
	// fallback attempts, so one preemption cannot cascade — with the
	// rework metered in the outcome. Ignored on a standing instance.
	Spot bool
}

var _ ExchangeStrategy = (*VMExchange)(nil)

// Name implements ExchangeStrategy.
func (*VMExchange) Name() string { return "vm" }

// vmMaxAttempts bounds the preemption restart loop. The first retry
// already falls back to on-demand capacity, which is never preempted
// by the provider, so in practice one restart suffices; the bound
// guards against a standing instance preempted on the retry too.
const vmMaxAttempts = 3

// RunSort implements ExchangeStrategy. When the executor holds a
// session's standing instance that is still running, the sort stages
// through it instead of provisioning (no boot, no Setup; InstanceType
// is ignored), the instance is left running afterwards, and its
// instance-hours are attributed by the session rather than to this
// stage. If the provider reclaims it, before the sort or in the middle
// of it, the sort runs on a fresh on-demand instance owned (and
// stopped) by this stage. A preempted attempt restarts
// the lost leg on a fresh instance — on-demand from the first retry —
// with the rework metered in the outcome. Output parts already durable
// in object storage are not re-written (keys are deterministic). The
// same loop survives a whole-zone outage: the reclaimed instance
// surfaces as a preemption, and the provisioner places the replacement
// in the first surviving zone, so the retry re-stages in healthy
// capacity with the rework metered identically.
func (v *VMExchange) RunSort(ctx *StageContext, params SortParams) (SortOutcome, error) {
	if ctx.Exec.Provisioner == nil {
		return SortOutcome{}, errors.New("core: executor has no VM provisioner")
	}
	if params.Workers <= 0 {
		return SortOutcome{}, errors.New("core: VM exchange needs an explicit Workers count")
	}
	keys := make([]string, params.Workers)
	for i := range keys {
		keys[i] = shuffle.OutputKey(params.OutputPrefix, i)
	}
	putDone := make([]bool, params.Workers)
	var restarts int
	var rework int64
	for attempt := 0; attempt < vmMaxAttempts; attempt++ {
		out, lost, err := v.runAttempt(ctx, params, keys, putDone, attempt)
		if err == nil {
			out.Restarts = restarts
			out.ReworkBytes = rework
			return out, nil
		}
		if !errors.Is(err, vm.ErrPreempted) {
			return SortOutcome{}, err
		}
		restarts++
		rework += lost
	}
	return SortOutcome{}, fmt.Errorf("vm exchange: gave up after %d preemptions: %w",
		restarts, vm.ErrPreempted)
}

// runAttempt executes one staging→sort→write pass. On preemption it
// returns vm.ErrPreempted plus the bytes of work lost with the
// instance's memory (to be redone by the next attempt).
func (v *VMExchange) runAttempt(ctx *StageContext, params SortParams, keys []string, putDone []bool, attempt int) (SortOutcome, int64, error) {
	p := ctx.Proc
	var inst *vm.Instance
	// The standing instance serves only the first attempt, and only
	// while it runs: once the provider has reclaimed it the sort runs on
	// stage-owned capacity.
	standing := attempt == 0 && ctx.Exec.StandingVM != nil && !ctx.Exec.StandingVM.Stopped()
	switch {
	case standing:
		inst = ctx.Exec.StandingVM
	default:
		var err error
		// Spot capacity only on the first attempt: the fallback is
		// on-demand so one preemption cannot cascade into another.
		if v.Spot && attempt == 0 {
			inst, err = ctx.Exec.Provisioner.ProvisionSpot(p, v.InstanceType)
		} else {
			inst, err = ctx.Exec.Provisioner.Provision(p, v.InstanceType)
		}
		if err != nil {
			return SortOutcome{}, 0, err
		}
		defer inst.Stop()
		if v.Setup > 0 {
			p.Sleep(v.Setup)
		}
	}

	conns := v.Conns
	if conns <= 0 {
		conns = inst.Type().VCPUs
	}
	client := inst.StorageClient(ctx.Exec.Store, conns)

	head, err := client.Head(p, params.InputBucket, params.InputKey)
	if err != nil {
		return SortOutcome{}, 0, fmt.Errorf("vm exchange: stat input: %w", err)
	}
	size := head.Size
	if size == 0 {
		return SortOutcome{}, 0, errors.New("vm exchange: empty input")
	}
	if int64(inst.Type().MemoryGB)<<30 < size {
		return SortOutcome{}, 0, fmt.Errorf(
			"vm exchange: %d-byte dataset exceeds %s memory (%d GB)",
			size, inst.Type().Name, inst.Type().MemoryGB)
	}
	if inst.Preempted() {
		return SortOutcome{}, 0, vm.ErrPreempted
	}

	// Stage in: parallel ranged GETs over the NIC.
	parts, err := parallelFetch(p, client, params.InputBucket, params.InputKey, size, conns)
	if err != nil {
		return SortOutcome{}, 0, err
	}
	whole := payload.Concat(parts...)
	if inst.Preempted() {
		// The staged bytes lived in the reclaimed instance's memory.
		return SortOutcome{}, size, vm.ErrPreempted
	}

	// Local sort: the real bytes are sorted for correctness; virtual
	// time is charged by modeled aggregate throughput.
	if v.SortBps > 0 {
		p.Sleep(time.Duration(float64(size) / v.SortBps * float64(time.Second)))
	}
	if inst.Preempted() {
		return SortOutcome{}, size, vm.ErrPreempted
	}
	var outParts []payload.Payload
	if raw, ok := whole.Bytes(); ok {
		recs, err := bed.Unmarshal(raw)
		if err != nil {
			return SortOutcome{}, 0, fmt.Errorf("vm exchange: parse: %w", err)
		}
		bed.Sort(recs)
		outParts = splitRecords(recs, params.Workers)
	} else {
		outParts = splitSized(size, params.Workers)
	}

	// Stage out: parallel PUTs, at most conns in flight, skipping parts
	// a preempted earlier attempt already made durable. PUTs that were
	// in flight when a reclaim lands still complete (the bytes were on
	// the wire), so a post-wave preemption costs nothing: the output is
	// in the store and the job is done.
	var pendKeys []string
	var pendParts []payload.Payload
	var pendIdx []int
	for i := range outParts {
		if putDone[i] {
			continue
		}
		pendKeys = append(pendKeys, keys[i])
		pendParts = append(pendParts, outParts[i])
		pendIdx = append(pendIdx, i)
	}
	if err := parallelPut(p, client, params.OutputBucket, pendKeys, pendParts, conns); err != nil {
		if inst.Preempted() {
			// Conservative: without per-put completion tracking the
			// whole write wave is redone.
			return SortOutcome{}, size, vm.ErrPreempted
		}
		return SortOutcome{}, 0, err
	}
	for _, i := range pendIdx {
		putDone[i] = true
	}
	boot := "boot+setup then"
	if standing {
		boot = "standing instance,"
	} else {
		if inst.Spot() {
			boot = "spot " + boot
		}
		inst.Stop()
	}
	detail := fmt.Sprintf("sort inside %s: %s %d-way staged I/O over %d conns",
		inst.Type().Name, boot, params.Workers, conns)
	if attempt > 0 {
		detail += fmt.Sprintf(" (recovered after %d preemption(s))", attempt)
	}
	return SortOutcome{OutputKeys: keys, Workers: params.Workers, StageOutcome: StageOutcome{Detail: detail}}, 0, nil
}

// parallelFetch range-reads an object with conns concurrent
// connections, returning the slices in order.
func parallelFetch(p *des.Proc, client interface {
	GetRange(p *des.Proc, bkt, key string, off, n int64) (payload.Payload, error)
}, bkt, key string, size int64, conns int) ([]payload.Payload, error) {
	if conns < 1 {
		conns = 1
	}
	n := conns
	if int64(n) > size {
		n = int(size)
	}
	parts := make([]payload.Payload, n)
	errs := make([]error, n)
	wg := des.NewWaitGroup(p.Sim())
	for i := 0; i < n; i++ {
		i := i
		off, length := shuffle.EvenShare(size, n, i)
		wg.Add(1)
		p.Spawn(fmt.Sprintf("vm-fetch-%d", i), func(fp *des.Proc) {
			defer wg.Done()
			parts[i], errs[i] = client.GetRange(fp, bkt, key, off, length)
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("vm exchange: stage in: %w", err)
		}
	}
	return parts, nil
}

// parallelPut uploads payloads under keys with at most conns in
// flight.
func parallelPut(p *des.Proc, client interface {
	Put(p *des.Proc, bkt, key string, pl payload.Payload) error
}, bkt string, keys []string, parts []payload.Payload, conns int) error {
	if conns < 1 {
		conns = 1
	}
	sem := des.NewResource(p.Sim(), int64(conns))
	errs := make([]error, len(parts))
	wg := des.NewWaitGroup(p.Sim())
	for i := range parts {
		i := i
		wg.Add(1)
		p.Spawn(fmt.Sprintf("vm-put-%d", i), func(up *des.Proc) {
			defer wg.Done()
			sem.Acquire(up, 1)
			defer sem.Release(1)
			errs[i] = client.Put(up, bkt, keys[i], parts[i])
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("vm exchange: stage out: %w", err)
		}
	}
	return nil
}

// splitRecords partitions sorted records into w contiguous parts of
// near-equal record count, preserving global order.
func splitRecords(recs []bed.Record, w int) []payload.Payload {
	parts := make([]payload.Payload, w)
	for i := range parts {
		idx, n := shuffle.EvenShare(int64(len(recs)), w, i)
		parts[i] = payload.RealNoCopy(bed.Marshal(recs[idx : idx+n]))
	}
	return parts
}

// splitSized divides a sized payload into w near-equal parts.
func splitSized(size int64, w int) []payload.Payload {
	parts := make([]payload.Payload, w)
	for i := range parts {
		_, n := shuffle.EvenShare(size, w, i)
		parts[i] = payload.Sized(n)
	}
	return parts
}
