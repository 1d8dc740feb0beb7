package faas

import (
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

// TestAttemptsChargeTheInvokersScope: every attempt of an invocation,
// failed, retried, cold or warm, runs as its own process and charges the
// scope of the process that invoked it, as well as the platform's meter.
// An invocation from outside any scope charges the meter alone.
func TestAttemptsChargeTheInvokersScope(t *testing.T) {
	cfg := exactConfig()
	cfg.FailureRate = 0.4
	sim, pf := newTestPlatform(t, cfg)
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		compute(ctx, 300*time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	opts := InvokeOptions{MaxRetries: 20}
	var lead *des.Scope
	var outside Meter
	sim.Spawn("stage", func(p *des.Proc) {
		lead = p.LeadScope()
		if _, err := pf.MapSync(p, "f", make([]any, 6), opts); err != nil {
			t.Error(err)
		}
		if _, err := pf.Invoke(p, "f", nil, opts); err != nil { // warm
			t.Error(err)
		}
		p.EndScope()
		before := pf.Meter()
		if _, err := pf.Invoke(p, "f", nil, opts); err != nil {
			t.Error(err)
		}
		outside = pf.Meter().Sub(before)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	scoped := pf.Ledger().Scope(lead)
	if scoped.FailedAttempts == 0 || scoped.Retries == 0 || scoped.WarmStarts == 0 {
		t.Fatalf("scope %+v: want failed, retried and warm attempts in it", scoped)
	}
	if want := pf.Meter().Sub(outside); scoped != want {
		t.Errorf("scope charged %+v, platform metered %+v inside it", scoped, want)
	}
	if outside.Invocations == 0 {
		t.Errorf("the invocation outside the scope was not metered: %+v", outside)
	}
}
