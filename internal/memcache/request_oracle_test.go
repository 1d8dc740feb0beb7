package memcache

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// The differential oracle for the admission chain (Cluster.admit): the
// process form of a cache request, as it stood before admit became a
// chain, kept here and nowhere else. A process takes its token, blocking
// in the take, checks the cluster and node again and sleeps out the
// request latency, one suspension a wait. Its take is Take's arithmetic
// verbatim over a des.Resource gate, on a bucket of the test's own: an
// independent reference, since nothing but the node's requests shares a
// node's bucket. The claim is the strong one: the chain fires the same
// events in the same order, so every scenario runs once per form on one
// seed and the runs must agree on every call's completion instant and
// error, the kernel's event count, the cluster's meters and stored
// bytes, and the next number out of the simulation's RNG. Handoffs may
// only fall.

// procBucket is a node's token bucket as a process takes from it.
// It counts the takes that had to wait in waits.
type procBucket struct {
	sim                 *des.Sim
	rate, burst, tokens float64
	last                time.Duration
	gate                *des.Resource
	waits               *int
}

func newProcBucket(sim *des.Sim, rate, burst float64, waits *int) *procBucket {
	return &procBucket{sim: sim, rate: rate, burst: burst, tokens: burst, last: sim.Now(), gate: des.NewResource(sim, 1), waits: waits}
}

// take blocks p until n tokens have been granted, FIFO.
func (b *procBucket) take(p *des.Proc, n float64) {
	if n <= 0 {
		return
	}
	if b.gate.InUse() > 0 {
		*b.waits++
	}
	b.gate.Acquire(p, 1)
	defer b.gate.Release(1)
	now := b.sim.Now()
	b.tokens += (now - b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < n {
		*b.waits++
		deficit := n - b.tokens
		p.Sleep(time.Duration(deficit / b.rate * float64(time.Second)))
		b.tokens += deficit
		b.last = b.sim.Now()
	}
	b.tokens -= n
}

// procCluster is a cluster whose requests are admitted in process form,
// each node through its own procBucket.
type procCluster struct {
	c  *Cluster
	tb []*procBucket
}

func (f *procCluster) admit(p *des.Proc, n *node) error {
	c := f.c
	if c.Stopped() {
		return ErrStopped
	}
	if n.down {
		return fmt.Errorf("memcache: node %d: %w", n.idx, ErrNodeDown)
	}
	f.tb[n.idx].take(p, 1)
	if c.Stopped() { // stopped while queued on the throttle
		return ErrStopped
	}
	if n.down { // failed while queued on the throttle
		return fmt.Errorf("memcache: node %d: %w", n.idx, ErrNodeDown)
	}
	p.Sleep(c.cfg.RequestLatency)
	return nil
}

func (f *procCluster) set(p *des.Proc, key string, pl payload.Payload) error {
	c := f.c
	n := c.nodeFor(key)
	if err := f.admit(p, n); err != nil {
		return err
	}
	size := pl.Size()
	if size > c.cfg.NodeMemoryBytes {
		return fmt.Errorf("%w: %d bytes > %d-byte node", ErrTooLarge, size, c.cfg.NodeMemoryBytes)
	}
	n.link.Transfer(p, size, c.cfg.PerConnBandwidth)
	c.metrics.SetOps++
	c.metrics.BytesIn += size
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

func (f *procCluster) get(p *des.Proc, key string) (payload.Payload, error) {
	c := f.c
	n := c.nodeFor(key)
	if err := f.admit(p, n); err != nil {
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

func (f *procCluster) mget(p *des.Proc, keys []string) ([]payload.Payload, error) {
	c := f.c
	out := make([]payload.Payload, len(keys))
	byNode := make(map[*node][]int)
	for i, key := range keys {
		n := c.nodeFor(key)
		byNode[n] = append(byNode[n], i)
	}
	for _, n := range c.nodes {
		idxs, ok := byNode[n]
		if !ok {
			continue
		}
		if err := f.admit(p, n); err != nil {
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

func (f *procCluster) del(p *des.Proc, key string) error {
	c := f.c
	n := c.nodeFor(key)
	if err := f.admit(p, n); err != nil {
		return err
	}
	c.metrics.DeleteOps++
	if old, ok := n.items[key]; ok {
		n.used -= old.Size()
		delete(n.items, key)
	}
	return nil
}

// cacheForm is one way to run a scenario's calls: the cluster's own
// methods (the chain) or procCluster's.
type cacheForm interface {
	set(p *des.Proc, key string, pl payload.Payload) error
	get(p *des.Proc, key string) (payload.Payload, error)
	mget(p *des.Proc, keys []string) ([]payload.Payload, error)
	del(p *des.Proc, key string) error
}

type chainCluster struct{ c *Cluster }

func (f chainCluster) set(p *des.Proc, key string, pl payload.Payload) error {
	return f.c.Set(p, key, pl)
}

func (f chainCluster) get(p *des.Proc, key string) (payload.Payload, error) {
	return f.c.Get(p, key)
}

func (f chainCluster) mget(p *des.Proc, keys []string) ([]payload.Payload, error) {
	return f.c.MGet(p, keys)
}

func (f chainCluster) del(p *des.Proc, key string) error {
	return f.c.Delete(p, key)
}

type cacheOpKind uint8

const (
	cacheSet cacheOpKind = iota
	cacheGet
	cacheMGet
	cacheDelete
	cacheSleep
)

type cacheOp struct {
	kind cacheOpKind
	keys []string
	size int64
	d    time.Duration
}

type cacheCaller struct {
	startAt time.Duration
	ops     []cacheOp
}

// cacheScenario is one seeded run: a warm cluster, its callers, and the
// instants the cluster is stopped or a node killed (negative: never).
type cacheScenario struct {
	seed    int64
	cfg     Config
	nodes   int
	callers []cacheCaller
	stopAt  time.Duration
	kills   []cacheKill
}

type cacheKill struct {
	at   time.Duration
	node int
}

// cacheOracle holds the admission chain to the process form.
var cacheOracle = destest.Pair[cacheScenario]{New: playCache(true), Old: playCache(false)}

// playCache is the cache oracle's Form, with the chain or in process
// form: the callers' log in completion order, then the cluster's meters
// and stored bytes and the next draw.
func playCache(chain bool) destest.Form[cacheScenario] {
	return func(t *testing.T, sc cacheScenario, tr *destest.Transcript) destest.Run {
		sim := des.New(sc.seed)
		pr, err := NewProvisioner(sim, sc.cfg)
		if err != nil {
			t.Fatalf("provisioner: %v", err)
		}
		var c *Cluster
		waits := 0 // the process form's takes that queued or waited out a deficit
		sim.Spawn("setup", func(p *des.Proc) {
			if c, err = pr.ProvisionWarm(p, sc.nodes); err != nil {
				t.Errorf("provision: %v", err)
				return
			}
			var form cacheForm = chainCluster{c}
			if !chain {
				f := &procCluster{c: c}
				for range c.nodes {
					f.tb = append(f.tb, newProcBucket(sim, pr.cfg.NodeOpsPerSec, pr.cfg.OpsBurst, &waits))
				}
				form = f
			}
			if sc.stopAt >= 0 {
				sim.Schedule(sc.stopAt, c.Stop)
			}
			for _, k := range sc.kills {
				sim.Schedule(k.at, func() { c.KillNode(k.node) })
			}
			for i, caller := range sc.callers {
				p.Spawn(fmt.Sprintf("caller%02d", i), func(p *des.Proc) {
					logf := func(k int, format string, args ...any) {
						tr.Logf("c%02d op%d @%d %s", i, k, p.Now(), fmt.Sprintf(format, args...))
						tr.Counts["calls"]++
					}
					p.Sleep(caller.startAt)
					for k, op := range caller.ops {
						switch op.kind {
						case cacheSet:
							logf(k, "set %s %d: %v", op.keys[0], op.size, form.set(p, op.keys[0], payload.Sized(op.size)))
						case cacheGet:
							pl, err := form.get(p, op.keys[0])
							logf(k, "get %s: %s %v", op.keys[0], sizes(pl), err)
						case cacheMGet:
							pls, err := form.mget(p, op.keys)
							logf(k, "mget %v: %s %v", op.keys, sizes(pls...), err)
						case cacheDelete:
							logf(k, "delete %s: %v", op.keys[0], form.del(p, op.keys[0]))
						case cacheSleep:
							p.Sleep(op.d)
						}
					}
				})
			}
		})
		return destest.Run{Kernel: sim, After: func() {
			// Coverage: what the scenario reached.
			for _, line := range tr.Lines {
				switch {
				case strings.Contains(line, "no such key"):
					tr.Counts["misses"]++
				case strings.Contains(line, ErrTooLarge.Error()):
					tr.Counts["too large"]++
				case strings.Contains(line, ErrOutOfMemory.Error()):
					tr.Counts["out of memory"]++
				case strings.Contains(line, ErrStopped.Error()):
					tr.Counts["stopped"]++
				case strings.Contains(line, ErrNodeDown.Error()):
					tr.Counts["down"]++
				case strings.Contains(line, " mget ") && strings.HasSuffix(line, " <nil>"):
					tr.Counts["mgets"]++
				}
			}
			tr.Counts["waits"] += int64(waits)
			tr.Logf("meters %+v, %d used", c.Metrics(), c.UsedBytes())
			tr.Logf("next draw %d", sim.Rand().Int63())
		}}
	}
}

// sizes lists the sizes of the payloads a call returned.
func sizes(pls ...payload.Payload) string {
	var b strings.Builder
	for i, pl := range pls {
		if i > 0 {
			b.WriteByte(',')
		}
		if pl == nil {
			b.WriteByte('-')
		} else {
			fmt.Fprint(&b, pl.Size())
		}
	}
	return "[" + b.String() + "]"
}

// genCacheScenario draws one scenario: 1-4 nodes of a few KiB on a
// throttle of 50-2,000 requests a second with a burst of 1-4, and 1-24
// callers mixing Sets (some larger than a node, many too large for what
// a shard has free), Gets and MGets of keys set or never set, Deletes
// and sleeps. Some scenarios stop the cluster or kill nodes while
// callers are queued on a throttle.
func genCacheScenario(r *rand.Rand, seed int64) cacheScenario {
	sc := cacheScenario{
		seed: seed,
		cfg: Config{
			NodeMemoryBytes:  int64(1+r.Intn(8)) << 10,
			RequestLatency:   time.Duration(r.Intn(3000)) * time.Microsecond,
			PerConnBandwidth: 1e5 + 1e7*r.Float64(),
			NodeOpsPerSec:    50 + 1950*r.Float64(),
			OpsBurst:         float64(1 + r.Intn(4)),
			NodeHourlyUSD:    0.3,
		},
		nodes:  1 + r.Intn(4),
		stopAt: -1,
	}
	if r.Intn(2) == 0 {
		sc.cfg.NodeBandwidth = 1e5 + 1e7*r.Float64()
	}
	keys := make([]string, 2+r.Intn(12))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	key := func() string { return keys[r.Intn(len(keys))] }
	for i, n := 0, 1+r.Intn(24); i < n; i++ {
		var caller cacheCaller
		caller.startAt = time.Duration(r.Intn(20)) * time.Millisecond
		for j, m := 0, 1+r.Intn(8); j < m; j++ {
			op := cacheOp{kind: cacheOpKind(r.Intn(5)), keys: []string{key()}}
			switch op.kind {
			case cacheSet:
				op.size = int64(r.Intn(int(sc.cfg.NodeMemoryBytes) * 5 / 4))
			case cacheMGet:
				for k := r.Intn(5); k > 0; k-- {
					op.keys = append(op.keys, key())
				}
			case cacheSleep:
				op.d = time.Duration(r.Intn(10000)) * time.Microsecond
			}
			caller.ops = append(caller.ops, op)
		}
		sc.callers = append(sc.callers, caller)
	}
	if r.Intn(4) == 0 {
		sc.stopAt = time.Duration(r.Intn(60)) * time.Millisecond
	}
	for k := r.Intn(3); k > 0 && r.Intn(2) == 0; k-- {
		sc.kills = append(sc.kills, cacheKill{time.Duration(r.Intn(60)) * time.Millisecond, r.Intn(sc.nodes)})
	}
	return sc
}

func TestCacheAdmissionMatchesProcessForm(t *testing.T) {
	sum := cacheOracle.Sweep(t, 300, 60, 38, func(i int, r *rand.Rand) (cacheScenario, time.Duration) {
		return genCacheScenario(r, int64(3800+i)), -1
	})
	c := sum.Counts
	t.Logf("%d scenarios: %d calls, %d misses, %d too large, %d out of memory, %d stopped, %d on a down node, %d MGets served, %d takes waiting; %d handoffs as chains, %d as processes",
		sum.Scenarios, c["calls"], c["misses"], c["too large"], c["out of memory"], c["stopped"], c["down"], c["mgets"], c["waits"], sum.New, sum.Old)
	sum.Reach(t, "misses", "too large", "out of memory", "stopped", "down", "mgets", "waits")
}

// FuzzCacheAdmission draws a scenario from each fuzzed seed and holds the
// chain to the process form on it, as TestCacheAdmissionMatchesProcessForm
// does on its fixed seeds.
func FuzzCacheAdmission(f *testing.F) {
	destest.Fuzz(f, cacheOracle, func(seed int64) (cacheScenario, time.Duration) {
		return genCacheScenario(rand.New(rand.NewSource(seed)), seed), -1
	}, 1, 38, 3800)
}

// TestCacheRequestKilledAtHorizon stops four Sets on one node with
// RunUntil: one mid-transfer, one mid-latency, one waiting out its
// token's deficit at the head of the throttle and one queued behind it.
// The kill ends their chains. The node must then serve a new Set, at the
// instant the two killed takes' tokens leave it, and count only that Set:
// nothing is stored or metered for a killed caller. Before admit was a
// chain, the queued caller's process held the throttle's gate past its
// kill and the new Set deadlocked.
func TestCacheRequestKilledAtHorizon(t *testing.T) {
	cfg := fastConfig()
	cfg.NodeOpsPerSec, cfg.OpsBurst = 1, 2 // a token a second
	cfg.RequestLatency = 300 * time.Millisecond
	cfg.PerConnBandwidth = 1000 // a 1,000-byte body takes a second
	sim := des.New(1)
	pr, err := NewProvisioner(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var c *Cluster
	sim.Spawn("setup", func(p *des.Proc) {
		if c, err = pr.ProvisionWarm(p, 1); err != nil {
			t.Error(err)
			return
		}
		// At 500 ms: "transfer" took the burst's first token at 0 and is
		// in its body (300 ms to 1.3 s); "latency" took one of 1.25
		// tokens at 250 ms and waits to 550 ms; "deficit" found 0.375 at
		// 375 ms and holds the gate until 1 s; "queued" waits behind it
		// from 400 ms.
		for _, w := range []struct {
			name string
			at   time.Duration
		}{{"transfer", 0}, {"latency", 250 * time.Millisecond}, {"deficit", 375 * time.Millisecond}, {"queued", 400 * time.Millisecond}} {
			p.Spawn(w.name, func(p *des.Proc) {
				p.Sleep(w.at)
				err := c.Set(p, w.name, payload.Sized(1000))
				t.Errorf("%s: Set returned (%v) at %v, past the horizon", w.name, err, p.Now())
			})
		}
	})
	const horizon = 500 * time.Millisecond
	if err := sim.RunUntil(horizon); !errors.Is(err, des.ErrSimLimit) {
		t.Fatalf("RunUntil: %v", err)
	}
	if m := c.Metrics(); m != (Metrics{}) || c.UsedBytes() != 0 {
		t.Fatalf("at the horizon: meters %+v, %d bytes used; nothing completed", m, c.UsedBytes())
	}
	var doneAt time.Duration
	var setErr error
	sim.Spawn("next", func(p *des.Proc) {
		setErr = c.Set(p, "next", payload.Sized(1000))
		doneAt = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	// "deficit"'s token at 1 s, "queued"'s at 2 s, this one's at 3 s, then
	// its latency and body.
	if want := 3*time.Second + 300*time.Millisecond + time.Second; setErr != nil || doneAt != want {
		t.Fatalf("next Set: %v at %v, want nil at %v", setErr, doneAt, want)
	}
	want := Metrics{SetOps: 1, BytesIn: 1000}
	if m := c.Metrics(); m != want || c.UsedBytes() != 1000 {
		t.Fatalf("after the run: meters %+v, %d bytes used; want %+v, 1000", m, c.UsedBytes(), want)
	}
	if len(c.idle) != 1 {
		t.Fatalf("%d admission records recycled, want the new Set's alone", len(c.idle))
	}
}
