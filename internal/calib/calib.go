// Package calib bundles calibrated performance profiles for the
// simulated cloud. The Paper profile is tuned so the reproduced
// Table 1 lands near the published numbers (83.32s / $0.008 serverless
// vs 142.77s / $0.010 VM-supported for 3.5 GB at parallelism 8); the
// Local profile is a fast small-scale variant for tests and examples
// that move real bytes.
//
// Absolute agreement with the paper is not the goal — the authors ran
// on IBM Cloud hardware we model, not measure. The calibration targets
// the paper's shape: the purely serverless pipeline wins by ~1.7x at
// roughly equal cost, because VM provisioning latency and single-NIC
// staging outweigh object storage's per-request overheads once the
// shuffle uses a sensible number of functions.
package calib

import (
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// Profile is a complete performance + pricing model for one scenario.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// Seed drives all simulation randomness.
	Seed int64
	// Store is the object storage service profile.
	Store objectstore.Config
	// Faas is the FaaS platform profile.
	Faas faas.Config
	// VMTypes overrides the instance catalog (nil: built-in).
	VMTypes []vm.InstanceType
	// InstanceType is the VM profile the hybrid pipeline provisions.
	InstanceType string
	// VMSetup is the post-boot runtime deployment time (the workflow
	// engine installs its agent and runtime on the fresh instance).
	VMSetup time.Duration
	// VMSortBps is the VM's aggregate in-memory sort throughput.
	VMSortBps float64
	// VMConns is the VM's parallel staging connection count
	// (0: one per vCPU).
	VMConns int
	// Cache is the in-memory cache node profile for the cache-exchange
	// strategy (the paper's §1 ElastiCache alternative).
	Cache memcache.Config
	// PartitionBps / MergeBps are per-function shuffle throughputs at
	// the baseline memory grant.
	PartitionBps, MergeBps float64
	// EncodeBps is the per-function METHCOMP encode throughput.
	EncodeBps float64
	// EncodeRatio is the size reduction sized-mode encode applies
	// (real mode uses the actual codec).
	EncodeRatio float64
	// Prices is the billing book.
	Prices billing.PriceBook
	// Zones are the placement domains the rig's provisioners spread
	// across (nil: one default zone). The first zone hosts everything —
	// including the object store's bandwidth pool — until an outage
	// forces placement elsewhere, so a ZoneOutage of Zones[0] is the
	// correlated whole-domain failure.
	Zones []string
}

// Paper returns the profile calibrated against the paper's Table 1
// setup: us-east-like object storage, 2 GB functions, a bx2-8x32 VM.
func Paper() Profile {
	return Profile{
		Name: "paper-useast",
		Seed: 20211206, // Middleware '21 week
		Store: objectstore.Config{
			RequestLatency:     18 * time.Millisecond,
			PerConnBandwidth:   95e6, // ~95 MB/s per connection
			AggregateBandwidth: 40e9, // backend fabric
			ReadOpsPerSec:      3000, // "a few thousand operations/s"
			WriteOpsPerSec:     1500,
			OpsBurst:           200,
			ListPageSize:       1000,
		},
		Faas: faas.Config{
			ColdStart:          850 * time.Millisecond,
			ColdStartJitter:    300 * time.Millisecond,
			WarmStart:          30 * time.Millisecond,
			KeepAlive:          10 * time.Minute,
			MemoryMB:           2048, // the paper allocates 2 GB
			BaselineMemoryMB:   2048,
			ConcurrencyLimit:   1000,
			BillingGranularity: 100 * time.Millisecond,
		},
		Cache: memcache.Config{
			NodeMemoryBytes:  13 << 30, // cache.m5.xlarge-class node
			RequestLatency:   500 * time.Microsecond,
			PerConnBandwidth: 300e6,
			NodeBandwidth:    1.25e9, // ~10 Gb/s NIC
			NodeOpsPerSec:    90000,
			OpsBurst:         1000,
			ProvisionTime:    150 * time.Second, // managed Redis spin-up
			NodeHourlyUSD:    0.311,
		},
		InstanceType: "bx2-8x32",
		VMSetup:      28 * time.Second, // Lithops agent + runtime deploy
		VMSortBps:    270e6,            // 8-core external-merge sort
		VMConns:      8,
		PartitionBps: 55e6, // parse + route + serialize in a 2GB function
		MergeBps:     55e6,
		EncodeBps:    11e6, // METHCOMP-style encoder on one 2GB function
		EncodeRatio:  23,   // measured ratio of our codec on WGBS-like data
		Prices:       billing.Default(),
	}
}

// Local returns a fast profile for correctness tests and examples
// that move real bytes at small scale: low latencies, high throttles,
// short starts. Timing still flows through every model, just quickly.
func Local() Profile {
	p := Paper()
	p.Name = "local-small"
	p.Store.RequestLatency = time.Millisecond
	p.Store.ReadOpsPerSec = 1e6
	p.Store.WriteOpsPerSec = 1e6
	p.Store.OpsBurst = 1e6
	p.Faas.ColdStart = 40 * time.Millisecond
	p.Faas.ColdStartJitter = 10 * time.Millisecond
	p.Faas.WarmStart = 2 * time.Millisecond
	p.VMSetup = 2 * time.Second
	p.VMTypes = fastBootCatalog()
	p.Cache.RequestLatency = 100 * time.Microsecond
	p.Cache.ProvisionTime = time.Second
	return p
}

// fastBootCatalog shrinks boot times so small-scale examples finish
// promptly while preserving the relative VM-vs-functions gap.
func fastBootCatalog() []vm.InstanceType {
	types := vm.Catalog()
	for i := range types {
		types[i].BootTime = types[i].BootTime / 10
	}
	return types
}
