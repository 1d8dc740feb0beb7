// Package memcache simulates a provisioned in-memory cache service in
// the mold of AWS ElastiCache or IBM Databases for Redis — the
// alternative data-passing substrate the paper names in §1: much lower
// latency and much higher request throughput than object storage, but
// capacity-bounded, billed per node-hour whether used or not, and with
// per-node network ceilings instead of a huge shared backend fabric.
//
// A Cluster shards keys across its nodes by hash. Each node has a
// memory capacity, its own NIC modeled as a fair-shared link, and a
// request-rate throttle far above object storage's. A value must fit in
// its shard's free memory: the policy is Redis's noeviction, the safe
// one for data passing, and a Set that does not fit fails.
//
// A node can be lost (KillNode: its shard's data gone, its requests
// failing with ErrNodeDown) and so can every cluster a zone hosts
// (FailZone); either way the managed service keeps billing the whole
// cluster, and new clusters go to the first zone up, or the first zone
// if none is. A request's admission (Cluster.admit: the node's
// throttle, then its latency) is a chain of callbacks its caller awaits,
// its body a Link.Transfer; a caller killed at a horizon does not hold
// the node's throttle.
//
// All methods must be called from des process context; like the other
// substrates it needs no locking because the simulation kernel runs
// one process at a time.
package memcache

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// Config describes the cache service's performance and price profile.
type Config struct {
	// NodeMemoryBytes is each node's usable capacity.
	NodeMemoryBytes int64
	// RequestLatency is the per-request service latency (sub-millisecond
	// for in-memory stores, versus tens of milliseconds for object
	// storage).
	RequestLatency time.Duration
	// PerConnBandwidth caps one request's transfer rate, bytes/second.
	PerConnBandwidth float64
	// NodeBandwidth is one node's NIC ceiling in bytes/second, shared
	// fairly by that node's in-flight transfers (<= 0: unlimited).
	NodeBandwidth float64
	// NodeOpsPerSec throttles each node's request admission.
	NodeOpsPerSec float64
	// OpsBurst is the per-node token-bucket burst.
	OpsBurst float64
	// ProvisionTime is the cluster spin-up latency. Managed caches
	// provision in minutes; the paper's argument that "always-on" object
	// storage needs no such step rests on this cost existing.
	ProvisionTime time.Duration
	// NodeHourlyUSD is the on-demand price per node, billed per second.
	NodeHourlyUSD float64
}

// DefaultConfig resembles a cache.m5-class managed Redis node.
func DefaultConfig() Config {
	return Config{
		NodeMemoryBytes:  13 << 30, // cache.m5.xlarge: ~13 GiB usable
		RequestLatency:   400 * time.Microsecond,
		PerConnBandwidth: 300e6,
		NodeBandwidth:    1.25e9, // ~10 Gb/s NIC
		NodeOpsPerSec:    90000,
		OpsBurst:         1000,
		ProvisionTime:    3 * time.Minute,
		NodeHourlyUSD:    0.311,
	}
}

func (c Config) validate() error {
	if c.NodeMemoryBytes <= 0 {
		return fmt.Errorf("memcache: NodeMemoryBytes must be positive, got %d", c.NodeMemoryBytes)
	}
	if c.RequestLatency < 0 {
		return fmt.Errorf("memcache: negative RequestLatency %v", c.RequestLatency)
	}
	if c.PerConnBandwidth <= 0 {
		return fmt.Errorf("memcache: PerConnBandwidth must be positive, got %g", c.PerConnBandwidth)
	}
	if c.NodeOpsPerSec <= 0 {
		return fmt.Errorf("memcache: NodeOpsPerSec must be positive, got %g", c.NodeOpsPerSec)
	}
	if c.ProvisionTime < 0 {
		return fmt.Errorf("memcache: negative ProvisionTime %v", c.ProvisionTime)
	}
	if c.NodeHourlyUSD < 0 {
		return fmt.Errorf("memcache: negative NodeHourlyUSD %g", c.NodeHourlyUSD)
	}
	return nil
}

// Provisioner creates cache clusters on a simulation.
type Provisioner struct {
	sim *des.Sim
	cfg Config

	zones cloud.Zones
	// clusters are every cluster provisioned, and each scope's own.
	clusters des.Ledger[[]*Cluster]
}

// NewProvisioner returns a provisioner with the given node profile.
func NewProvisioner(sim *des.Sim, cfg Config) (*Provisioner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.OpsBurst < 1 {
		cfg.OpsBurst = 1
	}
	return &Provisioner{sim: sim, cfg: cfg}, nil
}

// Zones returns where new clusters land: the first if all are down.
func (pr *Provisioner) Zones() *cloud.Zones { return &pr.zones }

// FailZone takes a whole placement domain down: every node of every
// running cluster hosted in the zone is killed (total cluster loss —
// the memory is gone with the hosts), and new clusters avoid the zone
// until Zones().RestoreZone. Clusters keep billing, like KillNode: the
// managed service bills while it rebuilds. Returns the number of
// clusters hit.
func (pr *Provisioner) FailZone(zone string) int {
	pr.zones.Fail(zone)
	hit := 0
	for _, c := range pr.clusters.Total {
		if c.zone != zone || c.Stopped() {
			continue
		}
		lost := false
		for i := range c.nodes {
			if !c.nodes[i].down {
				c.KillNode(i)
				lost = true
			}
		}
		if lost {
			hit++
		}
	}
	return hit
}

// Config returns the node profile.
func (pr *Provisioner) Config() Config { return pr.cfg }

// Provision spins up a cluster of n nodes, blocking p for the
// provisioning latency, and returns the running cluster.
func (pr *Provisioner) Provision(p *des.Proc, n int) (*Cluster, error) {
	return pr.provision(p, n, pr.cfg.ProvisionTime)
}

// ProvisionWarm returns a cluster without paying the spin-up latency,
// modeling a long-lived cluster that is already running when the job
// starts. Billing still begins now (the job window), which understates
// a real always-on cluster's cost; callers comparing strategies should
// say so.
func (pr *Provisioner) ProvisionWarm(p *des.Proc, n int) (*Cluster, error) {
	return pr.provision(p, n, 0)
}

func (pr *Provisioner) provision(p *des.Proc, n int, spinUp time.Duration) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("memcache: cluster needs >= 1 node, got %d", n)
	}
	requested := pr.sim.Now()
	p.Sleep(spinUp)
	// Place after the spin-up wait so the cluster lands in a zone that
	// is still up at readiness. When every zone is down the cluster
	// still provisions, tagged with the first zone — it will be killed
	// by the ongoing outage's FailZone only if that fires again, so
	// callers racing an outage should check Zones().ZoneDown first.
	zone, _ := pr.zones.Pick()
	c := &Cluster{
		lease: cloud.NewLease(pr.sim, requested),
		cfg:   pr.cfg,
		zone:  zone,
		nodes: make([]*node, n),
	}
	for i := range c.nodes {
		c.nodes[i] = &node{
			idx:   i,
			link:  des.NewLink(pr.sim, pr.cfg.NodeBandwidth),
			tb:    des.NewTokenBucket(pr.sim, pr.cfg.NodeOpsPerSec, pr.cfg.OpsBurst),
			items: make(map[string]payload.Payload),
		}
	}
	pr.clusters.Charge(p, func(l *[]*Cluster) { *l = append(*l, c) })
	return c, nil
}

// Clusters returns every cluster ever provisioned (for billing).
func (pr *Provisioner) Clusters() []*Cluster {
	out := make([]*Cluster, len(pr.clusters.Total))
	copy(out, pr.clusters.Total)
	return out
}

// Ledger returns the clusters provisioned, per scope as well as in all.
func (pr *Provisioner) Ledger() *des.Ledger[[]*Cluster] { return &pr.clusters }

// node is one cache shard.
type node struct {
	idx   int
	link  *des.Link // the NIC, a request's body capped at PerConnBandwidth
	tb    *des.TokenBucket
	items map[string]payload.Payload
	used  int64
	down  bool
}

// lease names the embedded cloud.Lease so that its field is unexported.
type lease = cloud.Lease

// Cluster is a running (or stopped) cache cluster.
type Cluster struct {
	lease
	cfg     Config
	zone    string
	nodes   []*node
	metrics Metrics
	idle    []*admission // records whose chain has ended, for reuse
}

// Nodes reports the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Zone reports the placement domain the cluster was provisioned in.
func (c *Cluster) Zone() string { return c.zone }

// Dead reports whether every node is down: the whole cluster's data is
// gone and no request can succeed. Callers use it to demote to a
// different substrate instead of burning a failed request per key.
func (c *Cluster) Dead() bool {
	for _, n := range c.nodes {
		if !n.down {
			return false
		}
	}
	return len(c.nodes) > 0
}

// Metrics returns a snapshot of the accumulated counters.
func (c *Cluster) Metrics() Metrics { return c.metrics }

// UsedBytes reports total stored volume across nodes.
func (c *Cluster) UsedBytes() int64 {
	var t int64
	for _, n := range c.nodes {
		t += n.used
	}
	return t
}

// CapacityBytes reports the cluster's total capacity.
func (c *Cluster) CapacityBytes() int64 {
	return c.cfg.NodeMemoryBytes * int64(len(c.nodes))
}

// CostAt reports the cost in USD the cluster had accumulated as of the
// instant at, at per-second granularity.
func (c *Cluster) CostAt(at time.Duration) float64 {
	return c.BilledDurationAt(at).Hours() * c.cfg.NodeHourlyUSD * float64(len(c.nodes))
}

// nodeFor shards a key to a node by hash.
func (c *Cluster) nodeFor(key string) *node {
	return c.nodes[c.NodeIndexFor(key)]
}

// NodeIndexFor exposes the shard mapping, for tests and placement-aware
// callers.
func (c *Cluster) NodeIndexFor(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32()) % len(c.nodes)
}

// KillNode fails node i: its stored data is lost (the memory is gone
// with the host) and every request sharded to it reports ErrNodeDown
// from now on. The node keeps billing — a managed service bills the
// cluster size while it replaces the member. Idempotent; out-of-range
// indexes are ignored.
func (c *Cluster) KillNode(i int) {
	if i < 0 || i >= len(c.nodes) {
		return
	}
	n := c.nodes[i]
	if n.down {
		return
	}
	n.down = true
	clear(n.items)
	n.used = 0
}

// NodeDown reports whether node i has been failed via KillNode.
func (c *Cluster) NodeDown(i int) bool {
	return i >= 0 && i < len(c.nodes) && c.nodes[i].down
}

// DownNodes reports how many of the cluster's nodes are down.
func (c *Cluster) DownNodes() int {
	var d int
	for _, n := range c.nodes {
		if n.down {
			d++
		}
	}
	return d
}

// refused reports why n cannot serve a request now, if it cannot.
func (c *Cluster) refused(n *node) error {
	if c.Stopped() {
		return ErrStopped
	}
	if n.down {
		return fmt.Errorf("memcache: node %d: %w", n.idx, ErrNodeDown)
	}
	return nil
}

// An admission is a request's throttle and latency on a node, a chain of
// events its caller awaits (des.Proc.Await) as an object-store request's
// does: the token's grant is the bucket's callback, the latency the
// caller's own wake. A kill at a RunUntil horizon cancels that wake, and
// a grant for a caller that is gone (des.Proc.Gone) ends the chain.
type admission struct {
	c               *Cluster
	p               *des.Proc
	n               *node
	take            des.TokenWaiter
	asked, latency  bool // the token asked for; the latency armed
	err             error
	stepFn, grantFn func()
}

// admit charges p one request on n: throttle then service latency. A
// killed caller's record is not recycled, its grant perhaps still due.
func (c *Cluster) admit(p *des.Proc, n *node) error {
	if err := c.refused(n); err != nil {
		return err
	}
	var a *admission
	if k := len(c.idle); k > 0 {
		a, c.idle = c.idle[k-1], c.idle[:k-1]
	} else {
		a = &admission{c: c}
		a.stepFn, a.grantFn = a.step, a.grant
	}
	a.p, a.n = p, n
	p.Await(a.stepFn)
	err := a.err
	*a = admission{c: c, take: a.take, stepFn: a.stepFn, grantFn: a.grantFn}
	c.idle = append(c.idle, a)
	return err
}

// step is the chain at Await's first call, which asks for the token, and
// at the caller's wakes, of which only the latency's ends a wait.
func (a *admission) step() {
	if a.latency {
		a.p.Resume()
	} else if !a.asked {
		a.asked = true
		if a.n.tb.TakeAsync(&a.take, 1, a.grantFn) {
			a.grant()
		}
	}
}

// grant has the token: it arms the latency as the caller's wake, unless
// the caller is gone or the cluster or node failed while it queued.
func (a *admission) grant() {
	if a.p.Gone() {
		return
	}
	if a.err = a.c.refused(a.n); a.err != nil {
		a.p.Resume()
		return
	}
	a.latency = true
	a.p.WakeAfter(a.c.cfg.RequestLatency)
}

// Set stores a value. A value that does not fit in its shard's free
// memory fails with ErrOutOfMemory, one larger than a whole node with
// ErrTooLarge.
func (c *Cluster) Set(p *des.Proc, key string, pl payload.Payload) error {
	n := c.nodeFor(key)
	if err := c.admit(p, n); err != nil {
		return err
	}
	size := pl.Size()
	if size > c.cfg.NodeMemoryBytes {
		return fmt.Errorf("%w: %d bytes > %d-byte node", ErrTooLarge, size, c.cfg.NodeMemoryBytes)
	}
	n.link.Transfer(p, size, c.cfg.PerConnBandwidth)
	c.metrics.SetOps++
	c.metrics.BytesIn += size

	// A replacement may reuse its old value's space, and a failed one
	// keeps the old value (noeviction).
	var oldSize int64
	if old, ok := n.items[key]; ok {
		oldSize = old.Size()
	}
	if free := c.cfg.NodeMemoryBytes - n.used + oldSize; size > free {
		return fmt.Errorf("%w: need %d bytes, %d free on shard",
			ErrOutOfMemory, size, free)
	}
	n.items[key] = pl
	n.used += size - oldSize
	return nil
}

// Get retrieves a value.
func (c *Cluster) Get(p *des.Proc, key string) (payload.Payload, error) {
	n := c.nodeFor(key)
	if err := c.admit(p, n); err != nil {
		return nil, err
	}
	c.metrics.GetOps++
	pl, ok := n.items[key]
	if !ok {
		c.metrics.Misses++
		return nil, &KeyError{Key: key}
	}
	c.metrics.Hits++
	n.link.Transfer(p, pl.Size(), c.cfg.PerConnBandwidth)
	c.metrics.BytesOut += pl.Size()
	return pl, nil
}

// MGet retrieves several keys in one round trip per shard: the keys
// are grouped by node, each group pays one request admission and
// latency, and the values transfer back over the node NIC. This is the
// batching a Redis pipeline or MGET gives an all-to-all reader —
// turning w serial request latencies into one per shard. Results are
// returned in key order; a missing key fails the whole call, like a
// strict pipeline.
func (c *Cluster) MGet(p *des.Proc, keys []string) ([]payload.Payload, error) {
	out := make([]payload.Payload, len(keys))
	byNode := make(map[*node][]int)
	for i, key := range keys {
		n := c.nodeFor(key)
		byNode[n] = append(byNode[n], i)
	}
	// Deterministic shard order: iterate nodes in cluster order.
	for _, n := range c.nodes {
		idxs, ok := byNode[n]
		if !ok {
			continue
		}
		if err := c.admit(p, n); err != nil {
			return nil, err
		}
		c.metrics.GetOps++
		var batch int64
		for _, i := range idxs {
			pl, ok := n.items[keys[i]]
			if !ok {
				c.metrics.Misses++
				return nil, &KeyError{Key: keys[i]}
			}
			c.metrics.Hits++
			out[i] = pl
			batch += pl.Size()
		}
		n.link.Transfer(p, batch, c.cfg.PerConnBandwidth)
		c.metrics.BytesOut += batch
	}
	return out, nil
}

// Delete removes a key. Deleting an absent key succeeds, like Redis DEL.
func (c *Cluster) Delete(p *des.Proc, key string) error {
	n := c.nodeFor(key)
	if err := c.admit(p, n); err != nil {
		return err
	}
	c.metrics.DeleteOps++
	if old, ok := n.items[key]; ok {
		n.used -= old.Size()
		delete(n.items, key)
	}
	return nil
}

// NodesForCapacity returns the smallest cluster size whose total
// capacity holds dataBytes with the given headroom factor (>= 1).
func NodesForCapacity(cfg Config, dataBytes int64, headroom float64) int {
	if headroom < 1 {
		headroom = 1
	}
	need := float64(dataBytes) * headroom
	nodes := 1
	for float64(cfg.NodeMemoryBytes)*float64(nodes) < need {
		nodes++
	}
	return nodes
}
