package autoplan

import (
	"fmt"
	"math"
	"time"

	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// A function family's time, active seconds, class A/B requests and
// invocations all come from one place: the wave fold in internal/shuffle
// (shuffle.Predict, PredictHierarchical, PredictCache). This file turns
// what the fold says each worker does into the usage the executor meters
// for a real run (a faas.Meter, an objectstore.Metrics, instance- and
// node-hours) and has billing.PriceBook price it with the methods that
// price the measured kind (FunctionsCost, StorageCost, and HourlyCost,
// the rate form of VMCost and CacheCost): no price is multiplied here.
// It adds the failure expectations and models the one family with no
// waves, the VM. EXPERIMENTS.md has the wave table.

// incidentPenalty prices one class of failure windows over a run:
// incidents arrive at perHour over the makespan; each opens a window
// of winSec during which store requests fail with probability rate and
// retry on the client's exponential ladder. The critical path absorbs
// roughly the failed share of each window plus the mean backoff a
// retried request waits out, and the retried share of the run's
// requests re-bills its class fees.
func incidentPenalty(env Env, makespan time.Duration, classA, classB int64,
	perHour, rate, winSec float64) (extraSec, extraUSD float64) {
	if perHour <= 0 || makespan <= 0 {
		return 0, 0
	}
	if rate > 0.999 {
		rate = 0.999
	}
	if rate <= 0 || winSec <= 0 {
		return 0, 0
	}
	incidents := perHour * makespan.Hours()
	// A request first failing inside the window retries until either
	// the window clears or the draw succeeds; its expected stall is the
	// failed share of the window plus the geometric ladder's mean wait,
	// bounded by the window itself (the ladder out-lasts any window it
	// can absorb — the PR 8 stream-layer design).
	meanBackoff := objectstore.RetryBackoffBase.Seconds() / (1 - rate)
	stall := math.Min(winSec, winSec*rate+meanBackoff)
	extraSec = incidents * stall
	// The share of the run spent inside windows retries rate/(1-rate)
	// extra attempts per request, re-billing its class fees.
	winShare := math.Min(1, incidents*winSec/makespan.Seconds())
	retryFrac := winShare * rate / (1 - rate)
	extraUSD = retryFrac * env.Prices.StorageCost(storeUse(classA, classB, 0, 0))
	return extraSec, extraUSD
}

// storeFaultPenalty prices the env's store-failure model over a plan's
// store legs: the correlated brownouts zone outages open. Every
// strategy's store-touching surface pays it; substrate legs that bypass
// the store (the cache exchange's w^2 hop) are exempt, which is exactly
// the asymmetry that lets the planner trade substrates under outage
// risk.
func storeFaultPenalty(env Env, makespan time.Duration, classA, classB int64) (time.Duration, float64) {
	sec, usd := incidentPenalty(env, makespan, classA, classB,
		env.ZoneOutagePerHour, chaos.DefaultOutageRate, chaos.DefaultOutageDuration.Seconds())
	return time.Duration(sec * float64(time.Second)), usd
}

// functionUse is the meter of workers running activeSeconds each at the
// env's memory grant, over invocations activations.
func functionUse(env Env, workers int, activeSeconds float64, invocations int) faas.Meter {
	memGB := float64(env.Faas.MemoryMB) / 1024
	return faas.Meter{
		GBSeconds:   float64(workers) * activeSeconds * memGB,
		Invocations: int64(invocations),
	}
}

// storeUse is the store metrics of classA writes, classB reads, and
// heldBytes kept in the store for the run's duration.
func storeUse(classA, classB int64, heldBytes int64, dur time.Duration) objectstore.Metrics {
	return objectstore.Metrics{
		ClassAOps:   classA,
		ClassBOps:   classB,
		ByteSeconds: float64(heldBytes) * dur.Seconds(),
	}
}

// activeSeconds is the per-worker billed time of a function-based
// plan: the I/O and CPU breakdown, without the shared startup wave.
func activeSeconds(p shuffle.Plan) float64 {
	return (p.Phase1IO + p.Phase1CPU + p.Phase2IO + p.Phase2CPU).Seconds()
}

// withStoreFaults is every predictor's last step: the outage-induced
// brownout model over the candidate's store requests.
func withStoreFaults(c Candidate, env Env, classA, classB int64) Candidate {
	faultT, faultUSD := storeFaultPenalty(env, c.Time, classA, classB)
	c.Time += faultT
	c.CostUSD += faultUSD
	c.Feasible = true
	return c
}

// priceStoreWaves turns a plan whose every wave goes through the object
// store into a candidate.
func priceStoreWaves(c Candidate, plan shuffle.Plan, wl Workload, env Env) Candidate {
	classB := plan.ClassB + shuffle.DriverReads
	c.Time = plan.Predicted
	c.CostUSD = env.Prices.FunctionsCost(functionUse(env, plan.Workers, activeSeconds(plan), plan.Invocations)) +
		env.Prices.StorageCost(storeUse(plan.ClassA, classB, 2*wl.DataBytes, plan.Predicted))
	return withStoreFaults(c, env, plan.ClassA, classB)
}

// predictObjectStorage models the one-level all-to-all: w workers, w^2
// intermediate objects through the store.
func predictObjectStorage(w int, wl Workload, env Env) Candidate {
	return priceStoreWaves(Candidate{Strategy: ObjectStorage, Workers: w},
		shuffle.Predict(w, wl.PlanInput, env.Store), wl, env)
}

// predictHierarchical models the two-level shuffle at the best divisor
// group count for this worker count.
func predictHierarchical(w int, wl Workload, env Env) Candidate {
	c := Candidate{Strategy: Hierarchical, Workers: w}
	var best shuffle.Plan
	for g := 2; g <= w; g++ {
		if w%g != 0 {
			continue
		}
		p := shuffle.PredictHierarchical(w, g, wl.PlanInput, env.Store)
		if c.Groups == 0 || p.Predicted < best.Predicted {
			best, c.Groups = p, g
		}
	}
	if c.Groups == 0 {
		c.Reason = fmt.Sprintf("%d has no divisor >= 2", w)
		return c
	}
	return priceStoreWaves(c, best, wl, env)
}

// crossZoneGBUSD is the per-GB fee on cache traffic crossing zone
// boundaries in a multi-zone placement.
const crossZoneGBUSD = 0.01

// predictCache models the memcache-backed exchange: input and output
// through the object store, the w^2 partition exchange through a
// cluster sized for the volume. The cluster bills node-hours for the
// whole job window.
//
// multiZone spreads the cluster's nodes across the env's zones: each
// cache request crossing a zone boundary — the (Zones-1)/Zones share —
// pays CrossZoneRTT extra latency and crossZoneGBUSD per GB, and in
// exchange a zone outage kills only 1/Zones of the shards, shrinking
// the expected demotion rework by the same factor. Single-zone
// placements risk the whole cluster: an outage mid-job demotes the
// exchange to the object-store path (slab regeneration plus re-run),
// priced as an expectation like the spot model.
func predictCache(w int, multiZone bool, wl Workload, env Env) Candidate {
	nodes := memcache.NodesForCapacity(env.Cache, wl.DataBytes, shuffle.CacheOversize)
	c := Candidate{Strategy: CacheBacked, Workers: w, CacheNodes: nodes, MultiZone: multiZone}
	standing := env.CacheStandingNodes > 0
	if standing {
		// A session-owned cluster is already running: the job must fit
		// in it, uses its actual size, and pays no node-hours. The
		// CacheMaxNodes quota caps what the planner may provision, so
		// it does not apply — nothing is being provisioned.
		if nodes > env.CacheStandingNodes {
			c.Reason = fmt.Sprintf("needs %d nodes, standing cluster has %d",
				nodes, env.CacheStandingNodes)
			return c
		}
		nodes = env.CacheStandingNodes
		c.CacheNodes = nodes
	} else if env.CacheMaxNodes > 0 && nodes > env.CacheMaxNodes {
		c.Reason = fmt.Sprintf("needs %d nodes, quota %d", nodes, env.CacheMaxNodes)
		return c
	}
	// crossFrac is the share of cache traffic leaving its zone in a
	// multi-zone placement (hash sharding spreads keys uniformly).
	crossFrac := 0.0
	if multiZone {
		crossFrac = float64(env.Zones-1) / float64(env.Zones)
	}
	plan := shuffle.PredictCache(w, wl.PlanInput, env.Store,
		shuffle.CacheProfile(env.Cache, nodes), crossFrac*env.CrossZoneRTT.Seconds())

	provision := env.Cache.ProvisionTime
	if standing {
		provision = 0
	}
	exchange := wl.Startup.Seconds() + plan.Seconds
	c.Time = provision + time.Duration(exchange*float64(time.Second))

	nodeHoursUSD := env.Prices.HourlyCost(float64(nodes)*env.Cache.NodeHourlyUSD, 0,
		(provision.Seconds()+exchange)/3600)
	if standing {
		// The session already pays the standing cluster's node-hours;
		// the job's marginal cost excludes them.
		nodeHoursUSD = 0
	}
	classB := plan.ClassB + shuffle.DriverReads
	c.CostUSD = env.Prices.FunctionsCost(functionUse(env, w, plan.Seconds, plan.Invocations)) +
		nodeHoursUSD +
		env.Prices.StorageCost(storeUse(plan.ClassA, classB, 2*wl.DataBytes, c.Time))
	// Cross-zone replication fee: both directions of the exchange cross
	// zones for the crossFrac share of the volume.
	c.CostUSD += 2 * float64(wl.DataBytes) * crossFrac / float64(1<<30) * crossZoneGBUSD

	// Zone-outage exposure: with probability qz over the job window the
	// cluster's zone fails mid-job. The exchange survives by demoting
	// to the object-store path — regeneration re-reads the hit share of
	// the input and the pending reducers re-run through fallback slabs
	// — so the expected penalty is that share of an object-store
	// exchange (its waves' time and requests, one fresh activation a
	// worker), halved for the average fault position. Multi-zone
	// placements lose only 1/Zones of the shards per outage.
	if env.ZoneOutagePerHour > 0 {
		in := wl.PlanInput
		in.Startup = 0
		demote := shuffle.Predict(w, in, env.Store)
		qz := 1 - math.Exp(-env.ZoneOutagePerHour*c.Time.Hours())
		frac := 0.5
		if multiZone {
			frac = 0.5 / float64(env.Zones)
		}
		c.Time += time.Duration(qz * frac * demote.Predicted.Seconds() * float64(time.Second))
		c.CostUSD += qz * frac * (env.Prices.FunctionsCost(functionUse(env, w, activeSeconds(demote), demote.Workers)) +
			env.Prices.StorageCost(storeUse(demote.ClassA, demote.ClassB, 0, 0)))
	}

	// The store legs (input read, sampled boundaries, streamed output)
	// still pay the brownout model; the w^2 cache hop is exempt.
	return withStoreFaults(c, env, plan.ClassA, classB)
}

// predictVM models the staged sort: boot + agent setup, parallel
// ranged GETs through the instance NIC, one local sort, parallel PUTs
// of the output parts. A spot candidate is priced as an expectation
// under the type's InterruptRate: with probability q the interruptible
// instance is reclaimed mid-run (on average halfway through the work),
// losing the staged bytes, and the job re-boots and redoes the whole
// leg on an on-demand fallback — exactly what the VM exchange executes.
func predictVM(it vm.InstanceType, spot bool, wl Workload, env Env) Candidate {
	parts := wl.Workers
	if parts <= 0 {
		parts = 8
	}
	c := Candidate{Strategy: VMStaged, Workers: parts, Instance: it.Name, Spot: spot}
	if int64(it.MemoryGB)<<30 < wl.DataBytes {
		c.Reason = fmt.Sprintf("%d GB memory < dataset", it.MemoryGB)
		return c
	}
	if spot && it.SpotHourlyUSD <= 0 {
		c.Reason = "no spot market for this type"
		return c
	}
	conns := env.VM.ConnsOn(it)
	rate := math.Min(it.NICBandwidth, env.Store.Rate(float64(conns), 1))
	d := float64(wl.DataBytes)
	lat := env.Store.RequestLatency.Seconds()
	stageIn := d/rate + lat
	sortT := d / env.VM.SortRate()
	stageOut := d/rate + lat
	work := stageIn + sortT + stageOut
	standing := env.VMStandingType != "" && it.Name == env.VMStandingType
	bootSetup := it.BootTime.Seconds() + env.VM.Setup.Seconds()
	if standing {
		// A session-owned instance is already booted and deployed.
		bootSetup = 0
	}
	// seconds is the run, billed on demand unless spot says otherwise.
	seconds := bootSetup + work
	odHours, spotHours := seconds/3600, 0.0
	if spot {
		// Preemption probability over the run's exposure window,
		// Poisson at InterruptRate per hour. Zone outages reclaim spot
		// capacity too, so their arrival rate adds to the market's.
		ir := it.InterruptRate + env.ZoneOutagePerHour
		q := 1 - math.Exp(-ir*seconds/3600)
		// E[cost]: the spot attempt bills at the spot rate either way
		// (full run, or boot+half the work before the reclaim); the
		// on-demand fallback bills a full run at the on-demand rate.
		spotHours = ((1-q)*(bootSetup+work) + q*(bootSetup+0.5*work)) / 3600
		odHours = q * (bootSetup + work) / 3600
		// E[time]: the fault-free run, plus — with probability q — half
		// the work wasted before the reclaim, a fresh boot+setup, and
		// the full leg redone (staged bytes die with the instance).
		seconds += q * (0.5*work + it.BootTime.Seconds() + env.VM.Setup.Seconds() + work)
	}
	c.Time = time.Duration(seconds * float64(time.Second))
	// Instance-hours at each rate, and the boot volume for the whole
	// expected run.
	instUSD := env.Prices.HourlyCost(it.HourlyUSD, 0, odHours) +
		env.Prices.HourlyCost(it.SpotHourlyUSD, 0, spotHours) +
		env.Prices.HourlyCost(0, it.MemoryGB, seconds/3600)
	if standing {
		// The session already pays the instance-hours; the job's
		// marginal cost excludes them.
		instUSD = 0
	}
	classA, classB := int64(parts), int64(conns)+1
	c.CostUSD = instUSD + env.Prices.StorageCost(storeUse(classA, classB, 2*wl.DataBytes, c.Time))
	return withStoreFaults(c, env, classA, classB)
}
