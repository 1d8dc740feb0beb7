package faas

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// faultRig builds a platform with the given failure/straggler profile.
func faultRig(t *testing.T, seed int64, mutate func(*Config)) (*des.Sim, *Platform) {
	t.Helper()
	sim := des.New(seed)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   0,
		PerConnBandwidth: 1e12,
		ReadOpsPerSec:    1e9,
		WriteOpsPerSec:   1e9,
		OpsBurst:         1e9,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	cfg := Config{
		ColdStart:          10 * time.Millisecond,
		WarmStart:          time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   1000,
		BillingGranularity: 100 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	pf, err := New(sim, store, cfg)
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	return sim, pf
}

func TestConfigRejectsBadFaultRates(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.FailureRate = -0.1 },
		func(c *Config) { c.FailureRate = 1.0 },
		func(c *Config) { c.StragglerRate = -0.1 },
		func(c *Config) { c.StragglerRate = 1.0 },
		func(c *Config) { c.StragglerRate = 0.1; c.StragglerSlowdown = 0.5 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		sim := des.New(1)
		store, _ := objectstore.New(sim, objectstore.DefaultConfig())
		if _, err := New(sim, store, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFailureInjectionSurfacesError(t *testing.T) {
	sim, pf := faultRig(t, 7, func(c *Config) { c.FailureRate = 0.5 })
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) { return in, nil }); err != nil {
		t.Fatalf("register: %v", err)
	}
	var sawFailure bool
	sim.Spawn("driver", func(p *des.Proc) {
		// With 50% failure odds and no retries, 32 invocations virtually
		// guarantee at least one ErrInvocationFailed.
		for i := 0; i < 32; i++ {
			if _, err := pf.Invoke(p, "f", i, InvokeOptions{}); errors.Is(err, ErrInvocationFailed) {
				sawFailure = true
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !sawFailure {
		t.Fatal("no injected failure surfaced in 32 invocations at 50%")
	}
	if pf.Meter().FailedAttempts == 0 {
		t.Fatal("FailedAttempts not metered")
	}
}

func TestRetriesRecoverFromTransientFailures(t *testing.T) {
	sim, pf := faultRig(t, 7, func(c *Config) { c.FailureRate = 0.3 })
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) { return in, nil }); err != nil {
		t.Fatalf("register: %v", err)
	}
	var firstErr error
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 64)
		for i := range inputs {
			inputs[i] = i
		}
		outs, err := pf.MapSync(p, "f", inputs, InvokeOptions{MaxRetries: 8})
		if err != nil {
			firstErr = err
			return
		}
		for i, o := range outs {
			if o != i {
				firstErr = fmt.Errorf("output %d = %v", i, o)
				return
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if firstErr != nil {
		t.Fatalf("map with retries failed: %v", firstErr)
	}
	m := pf.Meter()
	if m.Retries == 0 {
		t.Fatal("no retries metered at 30% failure rate over 64 inputs")
	}
	// Every failed attempt must be matched by a retry (they all
	// eventually succeeded).
	if m.Retries != m.FailedAttempts {
		t.Fatalf("Retries = %d, FailedAttempts = %d; want equal", m.Retries, m.FailedAttempts)
	}
}

func TestRetriesExhaust(t *testing.T) {
	// A handler error is NOT retried — only platform failures are.
	sim, pf := faultRig(t, 7, nil)
	handlerErr := errors.New("bug in handler")
	if err := pf.Register("buggy", func(ctx *Ctx, in any) (any, error) { return nil, handlerErr }); err != nil {
		t.Fatalf("register: %v", err)
	}
	var got error
	sim.Spawn("driver", func(p *des.Proc) {
		_, got = pf.Invoke(p, "buggy", nil, InvokeOptions{MaxRetries: 5})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !errors.Is(got, handlerErr) {
		t.Fatalf("err = %v, want handler error", got)
	}
	if pf.Meter().Retries != 0 {
		t.Fatalf("handler error consumed %d retries", pf.Meter().Retries)
	}
}

func TestFailedAttemptsAreBilled(t *testing.T) {
	sim, pf := faultRig(t, 11, func(c *Config) { c.FailureRate = 0.5 })
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("register: %v", err)
	}
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 32)
		_, _ = pf.MapSync(p, "f", inputs, InvokeOptions{MaxRetries: 10})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	m := pf.Meter()
	if m.FailedAttempts == 0 {
		t.Fatal("expected failures at 50%")
	}
	// Billed attempts = successes + failures; each failure bills one
	// granularity unit, so GBSeconds must exceed the success-only
	// volume.
	minGBs := float64(m.Invocations-m.FailedAttempts) * 0.1 * 2
	if m.GBSeconds <= minGBs-1e-9 {
		t.Fatalf("GBSeconds = %g does not include failed attempts (min %g)", m.GBSeconds, minGBs)
	}
}

func TestStragglersSlowCompute(t *testing.T) {
	const work = time.Second
	run := func(rate float64) (makespan time.Duration, stragglers int64) {
		sim, pf := faultRig(t, 13, func(c *Config) {
			c.StragglerRate = rate
			c.StragglerSlowdown = 4
			c.ColdStartJitter = 0
		})
		if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
			compute(ctx, work)
			return nil, nil
		}); err != nil {
			t.Fatalf("register: %v", err)
		}
		sim.Spawn("driver", func(p *des.Proc) {
			inputs := make([]any, 32)
			start := p.Now()
			_, _ = pf.MapSync(p, "f", inputs, InvokeOptions{})
			makespan = p.Now() - start
		})
		if err := sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		return makespan, pf.Meter().Stragglers
	}
	clean, zero := run(0)
	slow, some := run(0.3)
	if zero != 0 {
		t.Fatalf("stragglers at rate 0 = %d", zero)
	}
	if some == 0 {
		t.Fatal("no stragglers at rate 0.3 over 32 tasks")
	}
	// A straggler runs 4x slower, so the wave's makespan roughly
	// quadruples.
	if slow < clean+2*work {
		t.Fatalf("straggler makespan %v barely above clean %v", slow, clean)
	}
}

func TestMapSpeculativeCutsTail(t *testing.T) {
	const work = time.Second
	run := func(speculate bool) (makespan time.Duration, rep SpecReport) {
		// Seed chosen so no backup draws the straggler slowdown itself
		// (backups are subject to the same injection, as on a real
		// platform, so an unlucky seed can re-straggle).
		sim, pf := faultRig(t, 9, func(c *Config) {
			c.StragglerRate = 0.2
			c.StragglerSlowdown = 6
			c.ColdStartJitter = 0
		})
		if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
			compute(ctx, work)
			return ctx.InvocationID, nil
		}); err != nil {
			t.Fatalf("register: %v", err)
		}
		sim.Spawn("driver", func(p *des.Proc) {
			inputs := make([]any, 32)
			for i := range inputs {
				inputs[i] = i
			}
			start := p.Now()
			if speculate {
				outs, r, err := pf.MapSpeculative(p, "f", inputs, InvokeOptions{})
				if err != nil || len(outs) != 32 {
					t.Errorf("speculative map: %v (%d outs)", err, len(outs))
				}
				rep = r
			} else {
				outs, err := pf.MapSync(p, "f", inputs, InvokeOptions{})
				if err != nil || len(outs) != 32 {
					t.Errorf("map: %v (%d outs)", err, len(outs))
				}
			}
			makespan = p.Now() - start
		})
		if err := sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		return makespan, rep
	}
	plain, _ := run(false)
	spec, rep := run(true)
	if rep.Backups == 0 {
		t.Fatal("speculation launched no backups despite 20% stragglers at 6x")
	}
	if spec >= plain {
		t.Fatalf("speculative makespan %v not below plain %v", spec, plain)
	}
	// A 6x straggler stretches the wave to ~6s; speculation should pull
	// it well under half of that.
	if spec > plain*3/4 {
		t.Fatalf("speculation too weak: %v vs %v", spec, plain)
	}
}

func TestMapSpeculativeNoBackupsOnUniformWave(t *testing.T) {
	sim, pf := faultRig(t, 19, func(c *Config) { c.ColdStartJitter = 0 })
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		compute(ctx, time.Second)
		return in, nil
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	var rep SpecReport
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 16)
		for i := range inputs {
			inputs[i] = i
		}
		outs, r, err := pf.MapSpeculative(p, "f", inputs, InvokeOptions{})
		rep = r
		if err != nil {
			t.Errorf("speculative map: %v", err)
			return
		}
		for i, o := range outs {
			if o != i {
				t.Errorf("out[%d] = %v", i, o)
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	// All tasks finish at the same virtual instant (no jitter, no
	// stragglers): the deadline never fires before completion.
	if rep.Backups != 0 {
		t.Fatalf("uniform wave launched %d backups", rep.Backups)
	}
}

func TestMapSpeculativeEmptyInputs(t *testing.T) {
	sim, pf := faultRig(t, 23, nil)
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) { return in, nil }); err != nil {
		t.Fatalf("register: %v", err)
	}
	sim.Spawn("driver", func(p *des.Proc) {
		outs, rep, err := pf.MapSpeculative(p, "f", nil, InvokeOptions{})
		if err != nil || len(outs) != 0 || rep.Backups != 0 {
			t.Errorf("empty speculative map: %v, %d outs, %+v", err, len(outs), rep)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestMapSpeculativePropagatesHandlerError(t *testing.T) {
	sim, pf := faultRig(t, 29, nil)
	boom := errors.New("boom")
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		if in == 3 {
			return nil, boom
		}
		return in, nil
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	var got error
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 8)
		for i := range inputs {
			inputs[i] = i
		}
		_, _, got = pf.MapSpeculative(p, "f", inputs, InvokeOptions{})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !errors.Is(got, boom) {
		t.Fatalf("err = %v, want boom", got)
	}
}

// TestMapSpeculativeWithRetriesAndFailures: speculation composes with
// MaxRetries under platform failure injection — the same input can
// burn retries on its primary AND get a backup, and every input still
// settles with a correct result while both recovery paths meter.
func TestMapSpeculativeWithRetriesAndFailures(t *testing.T) {
	sim, pf := faultRig(t, 9, func(c *Config) {
		c.FailureRate = 0.25
		c.StragglerRate = 0.2
		c.StragglerSlowdown = 6
		c.ColdStartJitter = 0
	})
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		compute(ctx, time.Second)
		return in, nil
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	var rep SpecReport
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 32)
		for i := range inputs {
			inputs[i] = i
		}
		outs, r, err := pf.MapSpeculative(p, "f", inputs, InvokeOptions{MaxRetries: 8})
		rep = r
		if err != nil {
			t.Errorf("speculative map with retries: %v", err)
			return
		}
		for i, o := range outs {
			if o != i {
				t.Errorf("out[%d] = %v", i, o)
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	m := pf.Meter()
	if m.Retries == 0 {
		t.Fatal("no retries metered at 25% failure rate over 32 inputs")
	}
	if rep.Backups == 0 {
		t.Fatal("no backups launched at 20% stragglers at 6x")
	}
	if rep.BackupWins > rep.Backups {
		t.Fatalf("BackupWins %d exceeds Backups %d", rep.BackupWins, rep.Backups)
	}
}

// TestMapSpeculativeUniformlySlowWave: when EVERY primary attempt
// straggles equally, arming is relative — the quantile completions
// that set the deadline are themselves stragglers, so the deadline
// lands beyond the wave and no backups launch. Homogeneous slowness
// is not a tail; duplicating it would double cost for zero makespan.
func TestMapSpeculativeUniformlySlowWave(t *testing.T) {
	sim, pf := faultRig(t, 17, func(c *Config) { c.ColdStartJitter = 0 })
	attempts := map[any]int{}
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		attempts[in]++
		if attempts[in] == 1 {
			compute(ctx, 10*time.Second) // every primary is slow
		} else {
			compute(ctx, time.Second)
		}
		return in, nil
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	var rep SpecReport
	var makespan time.Duration
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 16)
		for i := range inputs {
			inputs[i] = i
		}
		start := p.Now()
		outs, r, err := pf.MapSpeculative(p, "f", inputs, InvokeOptions{})
		rep = r
		makespan = p.Now() - start
		if err != nil || len(outs) != 16 {
			t.Errorf("speculative map: %v (%d outs)", err, len(outs))
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if rep.Backups != 0 {
		t.Fatalf("uniformly slow wave launched %d backups", rep.Backups)
	}
	if makespan < 10*time.Second {
		t.Fatalf("makespan %v below the primaries' compute time", makespan)
	}
}

// TestMapSpeculativeBackupWinsMetered: one deterministic straggler
// whose retry-free backup is fast — the backup settles the input, the
// win is metered, and the loser's slow primary does not stretch the
// map's makespan.
func TestMapSpeculativeBackupWinsMetered(t *testing.T) {
	sim, pf := faultRig(t, 21, func(c *Config) { c.ColdStartJitter = 0 })
	attempts := map[any]int{}
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		attempts[in]++
		if in == 15 && attempts[in] == 1 {
			compute(ctx, 30*time.Second) // the straggling primary
		} else {
			compute(ctx, time.Second)
		}
		return in, nil
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	var rep SpecReport
	var makespan time.Duration
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 16)
		for i := range inputs {
			inputs[i] = i
		}
		start := p.Now()
		outs, r, err := pf.MapSpeculative(p, "f", inputs, InvokeOptions{})
		rep = r
		makespan = p.Now() - start
		if err != nil {
			t.Errorf("speculative map: %v", err)
			return
		}
		for i, o := range outs {
			if o != i {
				t.Errorf("out[%d] = %v", i, o)
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if rep.Backups != 1 || rep.BackupWins != 1 {
		t.Fatalf("Backups/BackupWins = %d/%d, want 1/1", rep.Backups, rep.BackupWins)
	}
	if makespan >= 30*time.Second {
		t.Fatalf("makespan %v waited out the losing primary", makespan)
	}
}

func TestStragglerActivationsFlagged(t *testing.T) {
	sim, pf := faultRig(t, 31, func(c *Config) {
		c.StragglerRate = 0.5
		c.StragglerSlowdown = 2
	})
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		compute(ctx, 100*time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 16)
		_, _ = pf.MapSync(p, "f", inputs, InvokeOptions{})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	var flagged int64
	for _, a := range pf.Activations() {
		if a.Straggler {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no activation flagged as straggler")
	}
	if flagged != pf.Meter().Stragglers {
		t.Fatalf("flagged %d != metered %d", flagged, pf.Meter().Stragglers)
	}
}

func TestMeterSubCoversNewFields(t *testing.T) {
	a := Meter{Invocations: 10, FailedAttempts: 4, Retries: 3, Stragglers: 2}
	b := Meter{Invocations: 6, FailedAttempts: 1, Retries: 1, Stragglers: 1}
	d := a.Sub(b)
	if d.FailedAttempts != 3 || d.Retries != 2 || d.Stragglers != 1 {
		t.Fatalf("Sub = %+v", d)
	}
}
