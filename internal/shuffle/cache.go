package shuffle

import (
	"errors"
	"fmt"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// CacheOversize oversizes an auto-sized cluster over the exchange
// volume so the all-to-all's transient double-buffering never hits the
// eviction path. The planner sizes its cache candidates with the same
// figure.
const CacheOversize = 1.3

// CacheProfile converts a cache node profile at a given cluster size
// into the planner's store profile, so PredictCache and the planner fold
// the exchange legs of the cache plan space through it: aggregate
// bandwidth and ops scale with nodes instead of being a service-wide
// constant.
func CacheProfile(cfg memcache.Config, nodes int) StoreProfile {
	if nodes < 1 {
		nodes = 1
	}
	return StoreProfile{
		RequestLatency:     cfg.RequestLatency,
		PerConnBandwidth:   cfg.PerConnBandwidth,
		AggregateBandwidth: cfg.NodeBandwidth * float64(nodes),
		ReadOpsPerSec:      cfg.NodeOpsPerSec * float64(nodes),
		WriteOpsPerSec:     cfg.NodeOpsPerSec * float64(nodes),
	}
}

// cacheRuns is the cache run store: every run (slab) is one cache
// entry under its partKey, degrading per slab to an object under
// fallbackKey in the fallback bucket when its shard node is down. A
// fully dead cluster (zone outage) demotes outright: the cache attempt
// is skipped, so the job runs the rest of the exchange on the
// object-store path. Slabs that died with a shard before being read
// are regenerated from the input (reduce).
type cacheRuns struct {
	cluster  *memcache.Cluster
	fallback string
	// only marks a regeneration wave's store: of the runs it is handed
	// it writes just these lost slabs, straight to the fallback bucket.
	only map[string]bool
}

// fallbackKey names a slab's object-storage fallback location.
func fallbackKey(key string) string { return "fallback/" + key }

// errSlabLost marks a slab gone from both the cache and the store
// fallback: its shard node died with the data and no regeneration has
// run yet. reduce reacts by regenerating and re-running.
var errSlabLost = errors.New("shuffle: cache slab lost")

// isNodeLoss reports whether err stems from a dead cache shard.
func isNodeLoss(err error) bool {
	return errors.Is(err, memcache.ErrNodeDown) || errors.Is(err, errSlabLost)
}

// medium sizes the cluster for j's exchange and returns it as the
// planner sees it.
func (c *cacheRuns) medium(j *job) (medium, error) {
	cfg := j.op.prov.Config()
	nodes := j.spec.Nodes
	if c.cluster != nil { // caller-owned: nothing is provisioned yet otherwise
		if c.cluster.Stopped() {
			return medium{}, errors.New("shuffle: caller-owned cache cluster is stopped")
		}
		nodes = c.cluster.Nodes()
		if j.size > c.cluster.CapacityBytes() {
			return medium{}, fmt.Errorf(
				"shuffle: %d-byte exchange exceeds the standing cluster's %d-byte capacity",
				j.size, c.cluster.CapacityBytes())
		}
	} else if nodes <= 0 {
		nodes = memcache.NodesForCapacity(cfg, j.size, CacheOversize)
	}
	j.res.Nodes = nodes
	return medium{StoreProfile: CacheProfile(cfg, nodes), resident: true}, nil
}

// ready provisions the cluster (skipped when warm: it is already up; or
// when the caller owns one: this job just uses it).
func (c *cacheRuns) ready(p *des.Proc, j *job) error {
	start := p.Now()
	if c.cluster == nil {
		var err error
		if j.spec.Warm {
			c.cluster, err = j.op.prov.ProvisionWarm(p, j.res.Nodes)
		} else {
			c.cluster, err = j.op.prov.Provision(p, j.res.Nodes)
		}
		if err != nil {
			return fmt.Errorf("shuffle: provision cache: %w", err)
		}
	}
	j.res.Provision = p.Now() - start
	return nil
}

// reduce merges out of the cache with bounded recovery: slabs lost with
// a dead shard (Set before the node died, no store copy) are
// regenerated from the input into the fallback bucket, and only
// reducers without durable output re-run.
func (c *cacheRuns) reduce(p *des.Proc, j *job) error {
	pending := make([]int, j.workers)
	for i := range pending {
		pending[i] = i
	}
	const maxRecoveries = 2
	for wave := 0; ; wave++ {
		if c.cluster.DownNodes() > 0 {
			if err := c.regenerate(p, j, pending); err != nil {
				return err
			}
		}
		_, err := j.launch(p, len(j.waves)-1, pending, c)
		if err == nil || wave >= maxRecoveries || !isNodeLoss(err) {
			return err
		}
		// A shard died mid-reduce. Reducers whose output is already
		// durable are done (their keys are deterministic); the rest
		// re-run after the loss scan above regenerates what they need.
		j.res.Restarts++
		var still []int
		for _, r := range pending {
			if _, herr := j.client.Head(p, j.spec.OutputBucket, j.res.OutputKeys[r]); herr == nil {
				continue
			} else if !objectstore.IsNotFound(herr) {
				return fmt.Errorf("cache recovery scan: %w", herr)
			}
			still = append(still, r)
		}
		pending = still
		if len(pending) == 0 {
			return nil
		}
	}
}

// regenerate scans the pending reducers' slab keys for ones sharded to
// a dead node with no object-storage fallback copy — data that died
// with the shard — and re-derives them by re-running the affected map
// slices against a store that emits only the lost slabs, into the
// fallback bucket. Deterministic boundaries make the regenerated slabs
// byte-identical to the lost ones.
func (c *cacheRuns) regenerate(p *des.Proc, j *job, reducers []int) error {
	lost := make(map[string]bool)
	var mappers []int
	for m := 0; m < j.workers; m++ {
		for _, r := range reducers {
			key := partKey(j.id, m, r)
			if !c.cluster.NodeDown(c.cluster.NodeIndexFor(key)) {
				continue
			}
			if _, err := j.client.Head(p, c.fallback, fallbackKey(key)); err != nil {
				if !objectstore.IsNotFound(err) {
					return fmt.Errorf("cache loss scan: %w", err)
				}
				if len(mappers) == 0 || mappers[len(mappers)-1] != m {
					mappers = append(mappers, m)
				}
				lost[key] = true
			}
		}
	}
	if len(lost) == 0 {
		return nil
	}
	slabs, err := j.launch(p, 0, mappers, &cacheRuns{cluster: c.cluster, fallback: c.fallback, only: lost})
	if err != nil {
		return fmt.Errorf("cache slab regen: %w", err)
	}
	j.res.Restarts++
	j.res.FallbackSlabs += slabs
	for _, m := range mappers {
		_, n := EvenShare(j.size, j.workers, m)
		j.res.ReworkBytes += n
	}
	return nil
}

// put stores a worker's slabs one Set at a time, each degrading on its
// own to the object-storage fallback when its shard node is down.
func (c *cacheRuns) put(ctx *faas.Ctx, n int, each func(int) (string, payload.Payload)) (stored, fellBack int, err error) {
	for ; stored < n; stored++ {
		key, run := each(stored)
		toStore, err := c.putSlab(ctx, key, run)
		if err != nil {
			return stored, fellBack, err
		}
		if toStore {
			fellBack++
		}
	}
	return n, fellBack, nil
}

// putSlab stores one slab and reports whether it went to the store.
func (c *cacheRuns) putSlab(ctx *faas.Ctx, key string, run payload.Payload) (bool, error) {
	if c.only != nil && !c.only[key] {
		return false, nil
	}
	if c.only == nil && !c.cluster.Dead() {
		err := c.cluster.Set(ctx.Proc, key, run)
		if err == nil {
			return false, nil
		}
		if !errors.Is(err, memcache.ErrNodeDown) {
			return false, err
		}
	}
	if err := ctx.Store.Put(ctx.Proc, c.fallback, fallbackKey(key), run); err != nil {
		return false, err
	}
	return true, nil
}

// fetch retrieves one slab, falling back to the object-storage copy
// when the shard node is down (or the key is gone with a replaced
// node). A fully dead cluster skips the cache attempt — the demoted
// job reads everything from the store.
func (c *cacheRuns) fetch(p *des.Proc, store *objectstore.Client, key string) (payload.Payload, error) {
	var err error
	if c.cluster.Dead() {
		err = memcache.ErrNodeDown
	} else {
		var pl payload.Payload
		pl, err = c.cluster.Get(p, key)
		if err == nil {
			return pl, nil
		}
		if !errors.Is(err, memcache.ErrNodeDown) && !memcache.IsNotFound(err) {
			return nil, err
		}
	}
	pl, serr := store.Get(p, c.fallback, fallbackKey(key))
	if serr != nil {
		if objectstore.IsNotFound(serr) {
			return nil, fmt.Errorf("%w: %s (%v)", errSlabLost, key, err)
		}
		return nil, serr
	}
	return pl, nil
}

// open Gets every slab whole. The cache has no chunked-read API, so the
// transfer-in overlap comes from parallel connections instead: one Get
// per run, concurrently, sharing node NICs fairly. The resident runs
// are then fed to the merge chunk-wise so its CPU charges interleave
// with the output's part uploads.
func (c *cacheRuns) open(ctx *faas.Ctx, keys []string, chunk int64) ([]runSource, error) {
	parts := make([]payload.Payload, len(keys))
	errs := make([]error, len(keys))
	wg := des.NewWaitGroup(ctx.Proc.Sim())
	for m := range keys {
		m := m
		wg.Add(1)
		ctx.Proc.Spawn(fmt.Sprintf("cache-fetch-%d", m), func(up *des.Proc) {
			defer wg.Done()
			parts[m], errs[m] = c.fetch(up, ctx.Store, keys[m])
		})
	}
	wg.Wait(ctx.Proc)
	for m, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fetch %s: %w", keys[m], err)
		}
	}
	srcs := make([]runSource, len(parts))
	for i, pl := range parts {
		srcs[i] = &payloadSource{pl: pl, chunk: chunk}
	}
	return srcs, nil
}

// free deletes the consumed cache entries.
func (c *cacheRuns) free(ctx *faas.Ctx, keys []string) error {
	for _, key := range keys {
		if err := c.cluster.Delete(ctx.Proc, key); err != nil {
			// A dead shard's data is already gone; freeing it is moot.
			if errors.Is(err, memcache.ErrNodeDown) {
				continue
			}
			return fmt.Errorf("free %s: %w", key, err)
		}
	}
	return nil
}
