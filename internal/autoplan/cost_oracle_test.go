package autoplan

import (
	"fmt"
	"math"
	"time"

	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// outputPartRequests counts the class A requests a reducer's streamed
// multipart output costs: the upload parts plus create/complete, or
// one plain PUT when the output fits a single part — the same
// arithmetic the PutStream writer executes.
func outputPartRequests(outBytes int64) int64 {
	return objectstore.PutStreamRequests(outBytes, shuffle.AdaptiveChunkBytes(0, outBytes))
}

// functionUSD and storageUSD are the retired hand-spelled prices, kept
// so the oracle stays independent of billing.PriceBook's methods:
// workers running activeSeconds each plus per-invocation fees, and
// classA writes, classB reads and heldBytes kept for dur.
func functionUSD(env Env, workers int, activeSeconds float64, invocations int) float64 {
	memGB := float64(env.Faas.MemoryMB) / 1024
	return float64(workers)*activeSeconds*memGB*env.Prices.FunctionGBSecond +
		float64(invocations)*env.Prices.FunctionInvocation
}

func storageUSD(env Env, classA, classB int64, heldBytes int64, dur time.Duration) float64 {
	const secondsPerMonth = 30 * 24 * 3600
	volume := float64(heldBytes) / float64(1<<30) * dur.Seconds() / secondsPerMonth * env.Prices.StorageGBMonth
	return float64(classA)*env.Prices.StorageClassA +
		float64(classB)*env.Prices.StorageClassB + volume
}

// oraclePredictCache is the retired closed form of predictCache, kept
// verbatim but for the names this PR renamed (the constants that were
// unset options, Workload.Startup for Env.FunctionStartup): the wave
// fold is compared with it.
//
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
func oraclePredictCache(w int, multiZone bool, wl Workload, env Env) Candidate {
	nodes := memcache.NodesForCapacity(env.Cache, wl.DataBytes, shuffle.CacheOversize)
	c := Candidate{Strategy: CacheBacked, Workers: w, CacheNodes: nodes, MultiZone: multiZone}
	if env.CacheStandingNodes > 0 {
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
	cacheProf := shuffle.CacheProfile(env.Cache, nodes)

	d := float64(wl.DataBytes)
	fw := float64(w)
	perWorker := d / fw

	storeRate := env.Store.PerConnBandwidth
	if env.Store.AggregateBandwidth > 0 {
		if agg := env.Store.AggregateBandwidth / fw; agg < storeRate {
			storeRate = agg
		}
	}
	cacheRate := cacheProf.PerConnBandwidth
	if cacheProf.AggregateBandwidth > 0 {
		if agg := cacheProf.AggregateBandwidth / fw; agg < cacheRate {
			cacheRate = agg
		}
	}
	slat := env.Store.RequestLatency.Seconds()
	clat := cacheProf.RequestLatency.Seconds()
	// crossFrac is the share of cache traffic leaving its zone in a
	// multi-zone placement (hash sharding spreads keys uniformly).
	crossFrac := 0.0
	if multiZone {
		crossFrac = float64(env.Zones-1) / float64(env.Zones)
		clat += crossFrac * env.CrossZoneRTT.Seconds()
	}

	// Phase 1: stream the input slice from the store — the ranged GET's
	// transfer overlaps the partition CPU, with only the per-partition
	// sort after it (shuffle.MapStreamRates' split) — then Set w
	// entries into the cache (w^2 sets jointly throttled).
	streamBps, sortBps := shuffle.MapStreamRates(wl.PartitionBps)
	p1 := math.Max(perWorker/storeRate, perWorker/streamBps) +
		perWorker/sortBps + perWorker/cacheRate +
		math.Max(fw*clat, fw*fw/cacheProf.WriteOpsPerSec) + slat
	// Phase 2: Get w entries from the cache over concurrent
	// connections (one admission latency, jointly throttled), then the
	// chunk-fed merge overlaps the streamed multipart output — the
	// resident runs make cache-in serial with max(merge, store-out).
	cacheAgg := math.Inf(1)
	if cacheProf.AggregateBandwidth > 0 {
		cacheAgg = cacheProf.AggregateBandwidth / fw
	}
	storeAgg := math.Inf(1)
	if env.Store.AggregateBandwidth > 0 {
		storeAgg = env.Store.AggregateBandwidth / fw
	}
	cacheInRate := math.Min(fw*cacheProf.PerConnBandwidth, cacheAgg)
	storeOutRate := math.Min(float64(objectstore.DefaultPutConns)*env.Store.PerConnBandwidth, storeAgg)
	parts := float64(outputPartRequests(int64(perWorker)))
	p2 := perWorker/cacheInRate +
		math.Max(perWorker/wl.MergeBps, perWorker/storeOutRate) +
		math.Max(clat, fw*fw/cacheProf.ReadOpsPerSec) +
		math.Max(slat, fw*parts/env.Store.WriteOpsPerSec)

	provision := env.Cache.ProvisionTime
	if env.CacheStandingNodes > 0 {
		provision = 0
	}
	exchange := wl.Startup.Seconds() + p1 + p2
	c.Time = provision + time.Duration(exchange*float64(time.Second))

	nodeHoursUSD := float64(nodes) * env.Cache.NodeHourlyUSD *
		(provision.Seconds() + exchange) / 3600
	if env.CacheStandingNodes > 0 {
		// The session already pays the standing cluster's node-hours;
		// the job's marginal cost excludes them.
		nodeHoursUSD = 0
	}
	classA := int64(w) * outputPartRequests(int64(perWorker))
	classB := 2 + int64(w)
	c.CostUSD = functionUSD(env, w, p1+p2, 2*w) +
		nodeHoursUSD +
		storageUSD(env, classA, classB, 2*wl.DataBytes, c.Time)
	// Cross-zone replication fee: both directions of the exchange cross
	// zones for the crossFrac share of the volume.
	c.CostUSD += 2 * d * crossFrac / float64(1<<30) * crossZoneGBUSD

	// Zone-outage exposure: with probability qz over the job window the
	// cluster's zone fails mid-job. The exchange survives by demoting
	// to the object-store path — regeneration re-reads the hit share of
	// the input and the pending reducers re-run through fallback slabs
	// — so the expected penalty is that share of an object-store
	// exchange, halved for the average fault position. Multi-zone
	// placements lose only 1/Zones of the shards per outage.
	if env.ZoneOutagePerHour > 0 {
		demoteIn := wl.PlanInput
		demoteIn.Startup = 0
		demote := shuffle.Predict(w, demoteIn, env.Store)
		qz := 1 - math.Exp(-env.ZoneOutagePerHour*c.Time.Hours())
		frac := 0.5
		if multiZone {
			frac = 0.5 / float64(env.Zones)
		}
		fw64 := int64(w)
		reworkA := fw64*fw64 + fw64*outputPartRequests(int64(perWorker))
		reworkB := fw64 + fw64*fw64
		c.Time += time.Duration(qz * frac * demote.Predicted.Seconds() * float64(time.Second))
		c.CostUSD += qz * frac * (functionUSD(env, w, activeSeconds(demote), w) +
			storageUSD(env, reworkA, reworkB, 0, 0))
	}

	// The store legs (input read, sampled boundaries, streamed output)
	// still pay the brownout model; the w^2 cache hop is exempt.
	faultT, faultUSD := storeFaultPenalty(env, c.Time, classA, classB)
	c.Time += faultT
	c.CostUSD += faultUSD
	c.Feasible = true
	return c
}
