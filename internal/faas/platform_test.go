package faas

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// compute consumes d of CPU time at baseline speed, scaled by the
// invocation's memory-proportional CPU share.
func compute(ctx *Ctx, d time.Duration) {
	if d > 0 {
		ctx.Proc.Sleep(time.Duration(float64(d) / ctx.speed))
	}
}

func fastStoreConfig() objectstore.Config {
	return objectstore.Config{
		RequestLatency:   0,
		PerConnBandwidth: 1e12,
		ReadOpsPerSec:    1e9,
		WriteOpsPerSec:   1e9,
		OpsBurst:         1e9,
	}
}

// deterministic platform config with no jitter for exact assertions.
func exactConfig() Config {
	return Config{
		ColdStart:          500 * time.Millisecond,
		ColdStartJitter:    0,
		WarmStart:          20 * time.Millisecond,
		KeepAlive:          5 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   100,
		BillingGranularity: 100 * time.Millisecond,
	}
}

func newTestPlatform(t *testing.T, cfg Config) (*des.Sim, *Platform) {
	t.Helper()
	sim := des.New(1)
	store, err := objectstore.New(sim, fastStoreConfig())
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := New(sim, store, cfg)
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	return sim, pf
}

func TestInvokeRunsHandler(t *testing.T) {
	sim, pf := newTestPlatform(t, exactConfig())
	if err := pf.Register("double", func(ctx *Ctx, in any) (any, error) {
		n, _ := in.(int)
		return n * 2, nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var out any
	var err error
	sim.Spawn("driver", func(p *des.Proc) {
		out, err = pf.Invoke(p, "double", 21, InvokeOptions{})
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if out != 42 {
		t.Fatalf("out = %v, want 42", out)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	sim, pf := newTestPlatform(t, exactConfig())
	var err error
	sim.Spawn("driver", func(p *des.Proc) {
		_, err = pf.Invoke(p, "ghost", nil, InvokeOptions{})
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	if !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v, want ErrUnknownFunction", err)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	_, pf := newTestPlatform(t, exactConfig())
	noop := func(ctx *Ctx, in any) (any, error) { return nil, nil }
	if err := pf.Register("f", noop); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := pf.Register("f", noop); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("duplicate Register = %v, want ErrAlreadyRegistered", err)
	}
	if err := pf.Register("nil", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestColdThenWarmStart(t *testing.T) {
	sim, pf := newTestPlatform(t, exactConfig())
	_ = pf.Register("f", func(ctx *Ctx, in any) (any, error) { return nil, nil })
	var first, second time.Duration
	sim.Spawn("driver", func(p *des.Proc) {
		t0 := p.Now()
		_, _ = pf.Invoke(p, "f", nil, InvokeOptions{})
		first = p.Now() - t0
		t1 := p.Now()
		_, _ = pf.Invoke(p, "f", nil, InvokeOptions{})
		second = p.Now() - t1
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	if first != 500*time.Millisecond {
		t.Fatalf("cold invoke latency = %v, want 500ms", first)
	}
	if second != 20*time.Millisecond {
		t.Fatalf("warm invoke latency = %v, want 20ms", second)
	}
	m := pf.Meter()
	if m.ColdStarts != 1 || m.WarmStarts != 1 {
		t.Fatalf("starts = %d cold / %d warm, want 1/1", m.ColdStarts, m.WarmStarts)
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	cfg := exactConfig()
	cfg.KeepAlive = time.Second
	sim, pf := newTestPlatform(t, cfg)
	_ = pf.Register("f", func(ctx *Ctx, in any) (any, error) { return nil, nil })
	sim.Spawn("driver", func(p *des.Proc) {
		_, _ = pf.Invoke(p, "f", nil, InvokeOptions{})
		p.Sleep(2 * time.Second) // container expires
		_, _ = pf.Invoke(p, "f", nil, InvokeOptions{})
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	if m := pf.Meter(); m.ColdStarts != 2 {
		t.Fatalf("ColdStarts = %d, want 2 after keep-alive expiry", m.ColdStarts)
	}
}

func TestParallelInvocationsOverlap(t *testing.T) {
	sim, pf := newTestPlatform(t, exactConfig())
	_ = pf.Register("sleep1s", func(ctx *Ctx, in any) (any, error) {
		ctx.Proc.Sleep(time.Second)
		return nil, nil
	})
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 8)
		if _, err := pf.MapSync(p, "sleep1s", inputs, InvokeOptions{}); err != nil {
			t.Errorf("MapSync: %v", err)
		}
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	// 8 parallel 1s activations after a 500ms cold start: ~1.5s, not 8s.
	if d := sim.Now().Seconds(); math.Abs(d-1.5) > 0.05 {
		t.Fatalf("8 parallel invocations took %.3fs, want ~1.5s", d)
	}
}

func TestConcurrencyLimitQueues(t *testing.T) {
	cfg := exactConfig()
	cfg.ConcurrencyLimit = 2
	cfg.ColdStart = 0
	cfg.WarmStart = 0
	sim, pf := newTestPlatform(t, cfg)
	_ = pf.Register("sleep1s", func(ctx *Ctx, in any) (any, error) {
		ctx.Proc.Sleep(time.Second)
		return nil, nil
	})
	sim.Spawn("driver", func(p *des.Proc) {
		_, _ = pf.MapSync(p, "sleep1s", make([]any, 6), InvokeOptions{})
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	// 6 one-second jobs through 2 slots: 3 seconds.
	if d := sim.Now().Seconds(); math.Abs(d-3.0) > 0.05 {
		t.Fatalf("limited map took %.3fs, want ~3s", d)
	}
}

func TestMemoryScalesCPU(t *testing.T) {
	cfg := exactConfig()
	cfg.ColdStart = 0
	cfg.WarmStart = 0
	sim, pf := newTestPlatform(t, cfg)
	_ = pf.Register("work", func(ctx *Ctx, in any) (any, error) {
		compute(ctx, 2*time.Second) // at baseline speed
		return nil, nil
	})
	var small, large time.Duration
	sim.Spawn("driver", func(p *des.Proc) {
		t0 := p.Now()
		_, _ = pf.Invoke(p, "work", nil, InvokeOptions{MemoryMB: 1024}) // half speed
		small = p.Now() - t0
		t1 := p.Now()
		_, _ = pf.Invoke(p, "work", nil, InvokeOptions{MemoryMB: 4096}) // double speed
		large = p.Now() - t1
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	if math.Abs(small.Seconds()-4.0) > 0.05 {
		t.Fatalf("1GB compute = %v, want ~4s", small)
	}
	if math.Abs(large.Seconds()-1.0) > 0.05 {
		t.Fatalf("4GB compute = %v, want ~1s", large)
	}
}

func TestGBSecondMetering(t *testing.T) {
	cfg := exactConfig()
	cfg.ColdStart = 0
	cfg.WarmStart = 0
	sim, pf := newTestPlatform(t, cfg)
	_ = pf.Register("sleep1s", func(ctx *Ctx, in any) (any, error) {
		ctx.Proc.Sleep(time.Second)
		return nil, nil
	})
	sim.Spawn("driver", func(p *des.Proc) {
		_, _ = pf.Invoke(p, "sleep1s", nil, InvokeOptions{}) // 2GB x 1s = 2 GB-s
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	m := pf.Meter()
	if math.Abs(m.GBSeconds-2.0) > 1e-9 {
		t.Fatalf("GBSeconds = %g, want 2.0", m.GBSeconds)
	}
	if m.Invocations != 1 {
		t.Fatalf("Invocations = %d, want 1", m.Invocations)
	}
}

func TestBillingRoundsUpToGranularity(t *testing.T) {
	cfg := exactConfig()
	cfg.ColdStart = 0
	cfg.WarmStart = 0
	sim, pf := newTestPlatform(t, cfg)
	_ = pf.Register("short", func(ctx *Ctx, in any) (any, error) {
		ctx.Proc.Sleep(130 * time.Millisecond) // bills as 200ms
		return nil, nil
	})
	sim.Spawn("driver", func(p *des.Proc) {
		_, _ = pf.Invoke(p, "short", nil, InvokeOptions{})
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	want := 0.2 * 2048.0 / 1024.0
	if got := pf.Meter().GBSeconds; math.Abs(got-want) > 1e-9 {
		t.Fatalf("GBSeconds = %g, want %g (rounded up)", got, want)
	}
}

func TestZeroDurationInvocationBillsOneUnit(t *testing.T) {
	cfg := exactConfig()
	cfg.ColdStart = 0
	cfg.WarmStart = 0
	sim, pf := newTestPlatform(t, cfg)
	_ = pf.Register("instant", func(ctx *Ctx, in any) (any, error) { return nil, nil })
	sim.Spawn("driver", func(p *des.Proc) {
		_, _ = pf.Invoke(p, "instant", nil, InvokeOptions{})
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	want := 0.1 * 2.0 // 100ms minimum at 2GB
	if got := pf.Meter().GBSeconds; math.Abs(got-want) > 1e-9 {
		t.Fatalf("GBSeconds = %g, want %g", got, want)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	sim, pf := newTestPlatform(t, exactConfig())
	boom := errors.New("boom")
	_ = pf.Register("fail", func(ctx *Ctx, in any) (any, error) { return nil, boom })
	var err error
	sim.Spawn("driver", func(p *des.Proc) {
		_, err = pf.Invoke(p, "fail", nil, InvokeOptions{})
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMapSyncOrderAndErrorIndex(t *testing.T) {
	sim, pf := newTestPlatform(t, exactConfig())
	_ = pf.Register("id", func(ctx *Ctx, in any) (any, error) {
		n, _ := in.(int)
		if n == 3 {
			return nil, errors.New("third input bad")
		}
		// Variable sleep so completion order differs from input order.
		ctx.Proc.Sleep(time.Duration(10-n) * 100 * time.Millisecond)
		return n, nil
	})
	var outs []any
	var err error
	sim.Spawn("driver", func(p *des.Proc) {
		outs, err = pf.MapSync(p, "id", []any{0, 1, 2, 3, 4}, InvokeOptions{})
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	if err == nil || err.Error() == "" {
		t.Fatal("want error from input 3")
	}
	for i, want := range []any{0, 1, 2, nil, 4} {
		if outs[i] != want {
			t.Fatalf("outs[%d] = %v, want %v", i, outs[i], want)
		}
	}
}

func TestHandlerUsesStore(t *testing.T) {
	sim, pf := newTestPlatform(t, exactConfig())
	_ = pf.Register("writer", func(ctx *Ctx, in any) (any, error) {
		key, _ := in.(string)
		return nil, ctx.Store.Put(ctx.Proc, "data", key, payload.Real([]byte("payload-"+key)))
	})
	_ = pf.Register("reader", func(ctx *Ctx, in any) (any, error) {
		key, _ := in.(string)
		pl, err := ctx.Store.Get(ctx.Proc, "data", key)
		if err != nil {
			return nil, err
		}
		b, _ := pl.Bytes()
		return string(b), nil
	})
	var got any
	sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(pf.store)
		if err := c.CreateBucket(p, "data"); err != nil {
			t.Errorf("bucket: %v", err)
			return
		}
		if _, err := pf.Invoke(p, "writer", "k1", InvokeOptions{}); err != nil {
			t.Errorf("writer: %v", err)
			return
		}
		var err error
		got, err = pf.Invoke(p, "reader", "k1", InvokeOptions{})
		if err != nil {
			t.Errorf("reader: %v", err)
		}
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	if got != "payload-k1" {
		t.Fatalf("reader got %v", got)
	}
}

func TestActivationRecords(t *testing.T) {
	sim, pf := newTestPlatform(t, exactConfig())
	_ = pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		ctx.Proc.Sleep(time.Second)
		return nil, nil
	})
	sim.Spawn("driver", func(p *des.Proc) {
		_, _ = pf.MapSync(p, "f", make([]any, 3), InvokeOptions{})
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	acts := pf.Activations()
	if len(acts) != 3 {
		t.Fatalf("activations = %d, want 3", len(acts))
	}
	for _, a := range acts {
		if a.Function != "f" || a.End-a.Start != time.Second {
			t.Fatalf("bad activation %+v", a)
		}
		if !a.Cold {
			t.Fatalf("parallel first-wave activation not cold: %+v", a)
		}
	}
}

func TestColdStartJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		cfg := exactConfig()
		cfg.ColdStartJitter = 200 * time.Millisecond
		sim, pf := newTestPlatform(t, cfg)
		_ = pf.Register("f", func(ctx *Ctx, in any) (any, error) { return nil, nil })
		sim.Spawn("driver", func(p *des.Proc) {
			_, _ = pf.MapSync(p, "f", make([]any, 5), InvokeOptions{})
		})
		if e := sim.Run(); e != nil {
			t.Fatalf("sim: %v", e)
		}
		var outs []time.Duration
		for _, a := range pf.Activations() {
			outs = append(outs, a.Start)
		}
		return outs
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("jittered starts differ across runs: %v vs %v", a, b)
	}
	spread := false
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			spread = true
		}
	}
	if !spread {
		t.Fatal("jitter produced identical cold starts")
	}
}

func TestFutureWaitAfterCompletion(t *testing.T) {
	sim, pf := newTestPlatform(t, exactConfig())
	_ = pf.Register("f", func(ctx *Ctx, in any) (any, error) { return "done", nil })
	var got any
	sim.Spawn("driver", func(p *des.Proc) {
		fut := pf.InvokeAsync(p, "f", nil, InvokeOptions{})
		p.Sleep(time.Minute) // result long since available
		if !fut.Done() {
			t.Error("future not done after a minute")
		}
		got, _ = fut.Wait(p)
	})
	if e := sim.Run(); e != nil {
		t.Fatalf("sim: %v", e)
	}
	if got != "done" {
		t.Fatalf("got = %v", got)
	}
}

func TestConfigValidationFaas(t *testing.T) {
	sim := des.New(1)
	store, err := objectstore.New(sim, fastStoreConfig())
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	bad := []Config{
		{ColdStart: -1, MemoryMB: 1, BaselineMemoryMB: 1, ConcurrencyLimit: 1, BillingGranularity: 1},
		{MemoryMB: 0, BaselineMemoryMB: 1, ConcurrencyLimit: 1, BillingGranularity: 1},
		{MemoryMB: 1, BaselineMemoryMB: 1, ConcurrencyLimit: 0, BillingGranularity: 1},
		{MemoryMB: 1, BaselineMemoryMB: 1, ConcurrencyLimit: 1, BillingGranularity: 0},
		{ColdStart: time.Second, ColdStartJitter: 2 * time.Second, MemoryMB: 1, BaselineMemoryMB: 1, ConcurrencyLimit: 1, BillingGranularity: 1},
	}
	for i, cfg := range bad {
		if _, err := New(sim, store, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(sim, store, DefaultConfig()); err != nil {
		t.Errorf("DefaultConfig rejected: %v", err)
	}
}
