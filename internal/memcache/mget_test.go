package memcache

import (
	"fmt"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

func TestMGetReturnsInKeyOrder(t *testing.T) {
	rig(t, fastConfig(), 3, func(p *des.Proc, c *Cluster) {
		keys := make([]string, 20)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%02d", i)
			if err := c.Set(p, keys[i], payload.Real([]byte(keys[i]))); err != nil {
				t.Fatalf("Set %s: %v", keys[i], err)
			}
		}
		out, err := c.MGet(p, keys)
		if err != nil {
			t.Fatalf("MGet: %v", err)
		}
		if len(out) != len(keys) {
			t.Fatalf("len = %d", len(out))
		}
		for i, pl := range out {
			b, _ := pl.Bytes()
			if string(b) != keys[i] {
				t.Errorf("out[%d] = %q, want %q", i, b, keys[i])
			}
		}
	})
}

func TestMGetMissingKeyFails(t *testing.T) {
	rig(t, fastConfig(), 2, func(p *des.Proc, c *Cluster) {
		if err := c.Set(p, "a", payload.Sized(1)); err != nil {
			t.Fatalf("Set: %v", err)
		}
		if _, err := c.MGet(p, []string{"a", "ghost"}); !IsNotFound(err) {
			t.Fatalf("MGet with missing key err = %v", err)
		}
	})
}

func TestMGetPaysOneLatencyPerShard(t *testing.T) {
	cfg := fastConfig()
	cfg.RequestLatency = 10 * time.Millisecond
	rig(t, cfg, 2, func(p *des.Proc, c *Cluster) {
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%02d", i)
			if err := c.Set(p, keys[i], payload.Sized(0)); err != nil {
				t.Fatalf("Set: %v", err)
			}
		}
		start := p.Now()
		if _, err := c.MGet(p, keys); err != nil {
			t.Fatalf("MGet: %v", err)
		}
		batched := p.Now() - start

		start = p.Now()
		for _, k := range keys {
			if _, err := c.Get(p, k); err != nil {
				t.Fatalf("Get: %v", err)
			}
		}
		serial := p.Now() - start

		// 2 shards x 10ms vs 16 x 10ms.
		if batched != 20*time.Millisecond {
			t.Errorf("batched = %v, want 20ms (one admit per shard)", batched)
		}
		if serial != 160*time.Millisecond {
			t.Errorf("serial = %v, want 160ms", serial)
		}
	})
}
