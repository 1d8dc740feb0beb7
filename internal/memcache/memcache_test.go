package memcache

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// fastConfig removes throttling/latency noise so logic tests are exact.
func fastConfig() Config {
	return Config{
		NodeMemoryBytes:  1 << 20,
		RequestLatency:   0,
		PerConnBandwidth: 1e12,
		NodeBandwidth:    0,
		NodeOpsPerSec:    1e9,
		OpsBurst:         1e9,
		ProvisionTime:    0,
		NodeHourlyUSD:    0.3,
	}
}

// rig provisions a cluster inside a sim process and hands it to fn.
func rig(t *testing.T, cfg Config, nodes int, fn func(p *des.Proc, c *Cluster)) {
	t.Helper()
	sim := des.New(1)
	pr, err := NewProvisioner(sim, cfg)
	if err != nil {
		t.Fatalf("NewProvisioner: %v", err)
	}
	sim.Spawn("test", func(p *des.Proc) {
		c, err := pr.Provision(p, nodes)
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		fn(p, c)
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero memory", func(c *Config) { c.NodeMemoryBytes = 0 }},
		{"negative latency", func(c *Config) { c.RequestLatency = -time.Second }},
		{"zero conn bandwidth", func(c *Config) { c.PerConnBandwidth = 0 }},
		{"zero ops", func(c *Config) { c.NodeOpsPerSec = 0 }},
		{"negative provision", func(c *Config) { c.ProvisionTime = -time.Second }},
		{"negative price", func(c *Config) { c.NodeHourlyUSD = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if _, err := NewProvisioner(des.New(1), cfg); err == nil {
				t.Errorf("NewProvisioner accepted invalid config %+v", cfg)
			}
		})
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if _, err := NewProvisioner(des.New(1), DefaultConfig()); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestProvisionNeedsNodes(t *testing.T) {
	sim := des.New(1)
	pr, err := NewProvisioner(sim, fastConfig())
	if err != nil {
		t.Fatalf("NewProvisioner: %v", err)
	}
	sim.Spawn("test", func(p *des.Proc) {
		if _, err := pr.Provision(p, 0); err == nil {
			t.Error("Provision(0) succeeded, want error")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSetGetRoundtrip(t *testing.T) {
	rig(t, fastConfig(), 3, func(p *des.Proc, c *Cluster) {
		want := []byte("intermediate partition bytes")
		if err := c.Set(p, "k", payload.Real(want)); err != nil {
			t.Errorf("Set: %v", err)
		}
		got, err := c.Get(p, "k")
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		b, ok := got.Bytes()
		if !ok || string(b) != string(want) {
			t.Errorf("Get = %q, want %q", b, want)
		}
	})
}

func TestGetMissing(t *testing.T) {
	rig(t, fastConfig(), 1, func(p *des.Proc, c *Cluster) {
		_, err := c.Get(p, "absent")
		if !IsNotFound(err) {
			t.Errorf("Get(absent) err = %v, want KeyError", err)
		}
		var ke *KeyError
		if errors.As(err, &ke) && ke.Key != "absent" {
			t.Errorf("KeyError.Key = %q, want absent", ke.Key)
		}
	})
}

func TestDeleteIdempotent(t *testing.T) {
	rig(t, fastConfig(), 2, func(p *des.Proc, c *Cluster) {
		if err := c.Set(p, "k", payload.Sized(100)); err != nil {
			t.Fatalf("Set: %v", err)
		}
		if err := c.Delete(p, "k"); err != nil {
			t.Errorf("Delete: %v", err)
		}
		if err := c.Delete(p, "k"); err != nil {
			t.Errorf("second Delete: %v", err)
		}
		if _, err := c.Get(p, "k"); !IsNotFound(err) {
			t.Errorf("Get after delete err = %v, want KeyError", err)
		}
		if got := c.UsedBytes(); got != 0 {
			t.Errorf("UsedBytes after delete = %d, want 0", got)
		}
	})
}

func TestReplaceReleasesSpace(t *testing.T) {
	cfg := fastConfig()
	cfg.NodeMemoryBytes = 1000
	rig(t, cfg, 1, func(p *des.Proc, c *Cluster) {
		if err := c.Set(p, "k", payload.Sized(900)); err != nil {
			t.Fatalf("Set 900: %v", err)
		}
		// Replacing with another 900 must not be seen as 1800 in flight.
		if err := c.Set(p, "k", payload.Sized(900)); err != nil {
			t.Errorf("replace Set: %v", err)
		}
		if got := c.UsedBytes(); got != 900 {
			t.Errorf("UsedBytes = %d, want 900", got)
		}
	})
}

func TestOutOfMemoryNoEviction(t *testing.T) {
	cfg := fastConfig()
	cfg.NodeMemoryBytes = 1000
	rig(t, cfg, 1, func(p *des.Proc, c *Cluster) {
		if err := c.Set(p, "a", payload.Sized(800)); err != nil {
			t.Fatalf("Set a: %v", err)
		}
		err := c.Set(p, "b", payload.Sized(300))
		if !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("Set b err = %v, want ErrOutOfMemory", err)
		}
		// The original value must be intact.
		if _, err := c.Get(p, "a"); err != nil {
			t.Errorf("Get a after OOM: %v", err)
		}
	})
}

// TestFailedReplaceKeepsOldValue: a replacing Set that does not fit
// fails like any other (noeviction) and leaves the key's old value, and
// the shard's usage, as they were.
func TestFailedReplaceKeepsOldValue(t *testing.T) {
	cfg := fastConfig()
	cfg.NodeMemoryBytes = 1000
	rig(t, cfg, 1, func(p *des.Proc, c *Cluster) {
		for _, kv := range []struct {
			key  string
			size int64
		}{{"a", 300}, {"b", 600}} {
			if err := c.Set(p, kv.key, payload.Sized(kv.size)); err != nil {
				t.Errorf("Set %s: %v", kv.key, err)
				return
			}
		}
		err := c.Set(p, "a", payload.Sized(500))
		if !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("replacing Set a err = %v, want ErrOutOfMemory", err)
			return
		}
		if want := "memcache: out of memory: need 500 bytes, 400 free on shard"; err.Error() != want {
			t.Errorf("replacing Set a err = %q, want %q", err, want)
		}
		pl, err := c.Get(p, "a")
		if err != nil {
			t.Errorf("Get a after the failed replace: %v", err)
		} else if pl.Size() != 300 {
			t.Errorf("Get a = %d bytes, want the old 300", pl.Size())
		}
		if got := c.UsedBytes(); got != 900 {
			t.Errorf("UsedBytes = %d, want 900", got)
		}
		// The old value's space is still the replacement's to take.
		if err := c.Set(p, "a", payload.Sized(400)); err != nil {
			t.Errorf("replacing Set a 400: %v", err)
		}
		if got := c.UsedBytes(); got != 1000 {
			t.Errorf("UsedBytes = %d, want 1000", got)
		}
	})
}

func TestValueLargerThanNode(t *testing.T) {
	cfg := fastConfig()
	cfg.NodeMemoryBytes = 1000
	rig(t, cfg, 1, func(p *des.Proc, c *Cluster) {
		err := c.Set(p, "big", payload.Sized(1001))
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("Set err = %v, want ErrTooLarge", err)
		}
	})
}

func TestShardingSpreadsKeys(t *testing.T) {
	rig(t, fastConfig(), 4, func(p *des.Proc, c *Cluster) {
		counts := make([]int, 4)
		for i := 0; i < 400; i++ {
			counts[c.NodeIndexFor(fmt.Sprintf("key-%d", i))]++
		}
		for n, got := range counts {
			if got < 50 || got > 150 {
				t.Errorf("node %d holds %d/400 keys; hash badly skewed", n, got)
			}
		}
	})
}

func TestStoppedClusterRejectsOps(t *testing.T) {
	rig(t, fastConfig(), 1, func(p *des.Proc, c *Cluster) {
		c.Stop()
		c.Stop() // idempotent
		if err := c.Set(p, "k", payload.Sized(1)); !errors.Is(err, ErrStopped) {
			t.Errorf("Set on stopped err = %v, want ErrStopped", err)
		}
		if _, err := c.Get(p, "k"); !errors.Is(err, ErrStopped) {
			t.Errorf("Get on stopped err = %v, want ErrStopped", err)
		}
		if err := c.Delete(p, "k"); !errors.Is(err, ErrStopped) {
			t.Errorf("Delete on stopped err = %v, want ErrStopped", err)
		}
	})
}

func TestBillingStopsAtStop(t *testing.T) {
	cfg := fastConfig()
	cfg.ProvisionTime = time.Minute
	sim := des.New(1)
	pr, err := NewProvisioner(sim, cfg)
	if err != nil {
		t.Fatalf("NewProvisioner: %v", err)
	}
	sim.Spawn("test", func(p *des.Proc) {
		c, err := pr.Provision(p, 2)
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		p.Sleep(2 * time.Minute)
		c.Stop()
		p.Sleep(time.Hour) // must not be billed

		// Billing runs from the provision request: 1 min spin-up + 2 min use.
		want := 3 * time.Minute
		if got := c.BilledDuration(); got != want {
			t.Errorf("BilledDuration = %v, want %v", got, want)
		}
		wantUSD := want.Hours() * cfg.NodeHourlyUSD * 2
		if got := c.CostAt(p.Now()); math.Abs(got-wantUSD) > 1e-12 {
			t.Errorf("Cost = %g, want %g", got, wantUSD)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRequestLatencyCharged(t *testing.T) {
	cfg := fastConfig()
	cfg.RequestLatency = 5 * time.Millisecond
	rig(t, cfg, 1, func(p *des.Proc, c *Cluster) {
		start := p.Now()
		if err := c.Set(p, "k", payload.Sized(0)); err != nil {
			t.Fatalf("Set: %v", err)
		}
		if _, err := c.Get(p, "k"); err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got, want := p.Now()-start, 10*time.Millisecond; got != want {
			t.Errorf("two zero-byte requests took %v, want %v", got, want)
		}
	})
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	cfg := fastConfig()
	cfg.PerConnBandwidth = 1e6 // 1 MB/s
	rig(t, cfg, 1, func(p *des.Proc, c *Cluster) {
		start := p.Now()
		if err := c.Set(p, "k", payload.Sized(500_000)); err != nil {
			t.Fatalf("Set: %v", err)
		}
		if got, want := p.Now()-start, 500*time.Millisecond; got != want {
			t.Errorf("0.5 MB at 1 MB/s took %v, want %v", got, want)
		}
	})
}

func TestNodeBandwidthSharedFairly(t *testing.T) {
	cfg := fastConfig()
	cfg.PerConnBandwidth = 1e9
	cfg.NodeBandwidth = 1e6 // 1 MB/s NIC
	sim := des.New(1)
	pr, err := NewProvisioner(sim, cfg)
	if err != nil {
		t.Fatalf("NewProvisioner: %v", err)
	}
	var elapsed time.Duration
	sim.Spawn("test", func(p *des.Proc) {
		c, err := pr.Provision(p, 1)
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		start := p.Now()
		wg := des.NewWaitGroup(sim)
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			p.Spawn(fmt.Sprintf("w%d", i), func(wp *des.Proc) {
				defer wg.Done()
				if err := c.Set(wp, fmt.Sprintf("k%d", i), payload.Sized(500_000)); err != nil {
					t.Errorf("Set: %v", err)
				}
			})
		}
		wg.Wait(p)
		elapsed = p.Now() - start
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	// Two 0.5 MB transfers sharing a 1 MB/s NIC: 1 second total.
	if want := time.Second; elapsed != want {
		t.Errorf("two concurrent transfers took %v, want %v", elapsed, want)
	}
}

func TestOpsThrottle(t *testing.T) {
	cfg := fastConfig()
	cfg.NodeOpsPerSec = 100
	cfg.OpsBurst = 1
	rig(t, cfg, 1, func(p *des.Proc, c *Cluster) {
		start := p.Now()
		for i := 0; i < 51; i++ {
			if err := c.Set(p, fmt.Sprintf("k%d", i), payload.Sized(0)); err != nil {
				t.Fatalf("Set: %v", err)
			}
		}
		elapsed := (p.Now() - start).Seconds()
		// 51 ops at 100/s with burst 1: ~0.5s.
		if elapsed < 0.4 || elapsed > 0.6 {
			t.Errorf("51 throttled ops took %.3fs, want ~0.5s", elapsed)
		}
	})
}

func TestMetricsCounting(t *testing.T) {
	rig(t, fastConfig(), 2, func(p *des.Proc, c *Cluster) {
		before := c.Metrics()
		_ = c.Set(p, "a", payload.Sized(100))
		_, _ = c.Get(p, "a")
		_, _ = c.Get(p, "missing")
		_ = c.Delete(p, "a")
		m := c.Metrics().Sub(before)
		if m.SetOps != 1 || m.GetOps != 2 || m.DeleteOps != 1 {
			t.Errorf("ops = %+v, want 1 set / 2 get / 1 delete", m)
		}
		if m.Hits != 1 || m.Misses != 1 {
			t.Errorf("hits/misses = %d/%d, want 1/1", m.Hits, m.Misses)
		}
		if m.BytesIn != 100 || m.BytesOut != 100 {
			t.Errorf("bytes = %d in / %d out, want 100/100", m.BytesIn, m.BytesOut)
		}
	})
}

func TestNodesForCapacity(t *testing.T) {
	cfg := fastConfig() // 1 MiB nodes
	cases := []struct {
		bytes    int64
		headroom float64
		want     int
	}{
		{1, 1, 1},
		{1 << 20, 1, 1},
		{1<<20 + 1, 1, 2},
		{1 << 20, 1.5, 2},
		{10 << 20, 1, 10},
		{0, 1, 1},
	}
	for _, tc := range cases {
		if got := NodesForCapacity(cfg, tc.bytes, tc.headroom); got != tc.want {
			t.Errorf("NodesForCapacity(%d, %g) = %d, want %d", tc.bytes, tc.headroom, got, tc.want)
		}
	}
}

// TestPropertyUsedNeverExceedsCapacity drives random operation
// sequences and checks the shard capacity invariant: a Set that does
// not fit fails with ErrOutOfMemory.
func TestPropertyUsedNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := fastConfig()
		cfg.NodeMemoryBytes = 4096
		sim := des.New(42)
		pr, err := NewProvisioner(sim, cfg)
		if err != nil {
			return false
		}
		okAll := true
		sim.Spawn("prop", func(p *des.Proc) {
			c, err := pr.Provision(p, 3)
			if err != nil {
				okAll = false
				return
			}
			for _, op := range ops {
				key := fmt.Sprintf("k%d", op%17)
				size := int64(op % 3000)
				switch op % 3 {
				case 0:
					err := c.Set(p, key, payload.Sized(size))
					if err != nil && !errors.Is(err, ErrOutOfMemory) {
						okAll = false
						return
					}
				case 1:
					if _, err := c.Get(p, key); err != nil && !IsNotFound(err) {
						okAll = false
						return
					}
				case 2:
					if err := c.Delete(p, key); err != nil {
						okAll = false
						return
					}
				}
				if c.UsedBytes() > c.CapacityBytes() {
					okAll = false
					return
				}
			}
		})
		if err := sim.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyShardingDeterministic checks that the shard mapping is a
// pure function of the key.
func TestPropertyShardingDeterministic(t *testing.T) {
	rig(t, fastConfig(), 5, func(p *des.Proc, c *Cluster) {
		f := func(key string) bool {
			a := c.NodeIndexFor(key)
			b := c.NodeIndexFor(key)
			return a == b && a >= 0 && a < 5
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestKillNodeFailsItsShardOnly: a killed node loses its data and
// rejects every op with ErrNodeDown, while keys sharded to surviving
// nodes are untouched — the blast radius a per-slab fallback needs.
func TestKillNodeFailsItsShardOnly(t *testing.T) {
	rig(t, fastConfig(), 4, func(p *des.Proc, c *Cluster) {
		byNode := map[int]string{}
		for i := 0; len(byNode) < 2 && i < 64; i++ {
			key := fmt.Sprintf("k%d", i)
			if idx := c.NodeIndexFor(key); byNode[idx] == "" {
				byNode[idx] = key
				if err := c.Set(p, key, payload.Sized(100)); err != nil {
					t.Fatalf("Set %s: %v", key, err)
				}
			}
		}
		var victim, survivor int
		seen := []int{}
		for idx := range byNode {
			seen = append(seen, idx)
		}
		victim, survivor = seen[0], seen[1]

		c.KillNode(victim)
		if !c.NodeDown(victim) || c.DownNodes() != 1 {
			t.Fatalf("NodeDown/DownNodes = %v/%d after kill", c.NodeDown(victim), c.DownNodes())
		}
		for _, op := range []func() error{
			func() error { _, err := c.Get(p, byNode[victim]); return err },
			func() error { return c.Set(p, byNode[victim], payload.Sized(1)) },
			func() error { return c.Delete(p, byNode[victim]) },
		} {
			if err := op(); !errors.Is(err, ErrNodeDown) {
				t.Errorf("op on killed shard = %v, want ErrNodeDown", err)
			}
		}
		if _, err := c.Get(p, byNode[survivor]); err != nil {
			t.Errorf("surviving shard's key lost: %v", err)
		}
		c.Stop()
	})
}

// TestKillNodeDropsDataButKeepsBilling: the dead node's memory is
// gone (UsedBytes shrinks) yet the managed cluster keeps billing all
// nodes while the member is replaced.
func TestKillNodeDropsDataButKeepsBilling(t *testing.T) {
	cfg := fastConfig()
	sim := des.New(1)
	pr, err := NewProvisioner(sim, cfg)
	if err != nil {
		t.Fatalf("NewProvisioner: %v", err)
	}
	var cl *Cluster
	sim.Spawn("test", func(p *des.Proc) {
		cl, err = pr.Provision(p, 2)
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		for i := 0; i < 16; i++ {
			if err := cl.Set(p, fmt.Sprintf("k%d", i), payload.Sized(100)); err != nil {
				t.Fatalf("Set: %v", err)
			}
		}
		before := cl.UsedBytes()
		cl.KillNode(0)
		cl.KillNode(0) // idempotent
		cl.KillNode(9) // out of range: ignored
		if cl.DownNodes() != 1 {
			t.Errorf("DownNodes = %d, want 1", cl.DownNodes())
		}
		if cl.UsedBytes() >= before {
			t.Errorf("UsedBytes %d did not shrink from %d after node loss", cl.UsedBytes(), before)
		}
		p.Sleep(time.Hour)
		cl.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	want := 1.0 * cfg.NodeHourlyUSD * 2 // both nodes bill for the full hour
	if got := cl.CostAt(sim.Now()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Cost = %g, want %g (killed node still bills)", got, want)
	}
}

// TestWarmRequestsAllocateNothing holds a Set over a key already stored
// and a Get of it, each throttled into a deficit wait, to no allocation:
// the admission records come from the cluster's pool and the body's flow
// from the link's free list.
func TestWarmRequestsAllocateNothing(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	cfg := fastConfig()
	cfg.NodeOpsPerSec, cfg.OpsBurst = 1000, 1
	cfg.RequestLatency = 400 * time.Microsecond
	cfg.PerConnBandwidth = 1e9
	body := payload.Sized(64 << 10)
	var set, get float64
	rig(t, cfg, 2, func(p *des.Proc, c *Cluster) {
		if err := c.Set(p, "k", body); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(p, "k"); err != nil {
			t.Fatal(err)
		}
		set = testing.AllocsPerRun(200, func() {
			if err := c.Set(p, "k", body); err != nil {
				t.Error(err)
			}
		})
		get = testing.AllocsPerRun(200, func() {
			if _, err := c.Get(p, "k"); err != nil {
				t.Error(err)
			}
		})
	})
	if set != 0 || get != 0 {
		t.Errorf("a warm Set allocates %.1f times and a Get %.1f, want 0 and 0", set, get)
	}
}
