package experiments

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// TestGatewayExperiment drives the full acceptance run: 10k open-loop
// submissions across 100 tenants, asserting (a) zero fair-share
// starvation, (b) per-tenant cost attribution summing to the session's
// bill, (c) the hammer class rejected at the door without moving the
// standard class's p99, plus the ranged serving leg.
func TestGatewayExperiment(t *testing.T) {
	res, err := Gateway(calib.Local(), 100, 10000)
	if err != nil {
		t.Fatalf("Gateway: %v", err)
	}
	if res.Starved != 0 {
		t.Errorf("starved tenant-rounds = %d, want 0", res.Starved)
	}
	if d := res.AttributedUSD - res.SessionUSD; d < -1e-6 || d > 1e-6 {
		t.Errorf("attributed $%.9f vs session $%.9f (delta %g)", res.AttributedUSD, res.SessionUSD, d)
	}
	var hammer, standard, premium *GatewayClass
	for i := range res.Classes {
		switch res.Classes[i].Name {
		case "hammer":
			hammer = &res.Classes[i]
		case "standard":
			standard = &res.Classes[i]
		case "premium":
			premium = &res.Classes[i]
		}
	}
	if hammer.RejectedRate == 0 {
		t.Error("hammer class saw no rate rejections — the limiter never engaged")
	}
	if hammer.RejectedRate*2 < hammer.Submitted {
		t.Errorf("hammer rejections %d of %d — expected the majority rejected", hammer.RejectedRate, hammer.Submitted)
	}
	if standard.RejectedRate != 0 || premium.RejectedRate != 0 {
		t.Errorf("bystander classes rate-rejected (standard %d, premium %d)", standard.RejectedRate, premium.RejectedRate)
	}
	// Isolation: the standard class's p99 with the hammer class present
	// tracks the control run without it. The admitted hammer trickle
	// (~2/s per hammer tenant) does occupy slots, so allow modest
	// headroom — what must not happen is the rejected 30/s showing up
	// as queueing delay for everyone else.
	if base := res.BaselineStandardP99; base > 0 {
		if ratio := float64(standard.P99) / float64(base); ratio > 1.5 {
			t.Errorf("standard p99 %v is %.2fx the hammer-free baseline %v", standard.P99, ratio, base)
		}
	}
	if standard.Completed == 0 || premium.Completed == 0 {
		t.Error("classes completed no work")
	}
	if got := standard.Completed + premium.Completed + hammer.Completed; got < 7000 {
		t.Errorf("only %d jobs completed of 10000 submitted", got)
	}
	if res.ServedBytes == 0 {
		t.Error("serving leg delivered no bytes")
	}
	if !res.ForbiddenBlocked {
		t.Error("cross-tenant read was not blocked")
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %f", res.Throughput)
	}
	t.Logf("\n%s", res)
}

// TestGatewayExperimentSmall keeps a fast smoke at low scale for -short
// environments.
func TestGatewayExperimentSmall(t *testing.T) {
	leaks := destest.NoLeakedGoroutines(t)
	res, err := Gateway(calib.Local(), 20, 500)
	if err != nil {
		t.Fatalf("Gateway: %v", err)
	}
	leaks()
	if res.Starved != 0 {
		t.Errorf("starved = %d", res.Starved)
	}
	if d := res.AttributedUSD - res.SessionUSD; d < -1e-6 || d > 1e-6 {
		t.Errorf("attribution delta %g", d)
	}
}
