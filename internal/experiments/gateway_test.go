package experiments

import (
	"fmt"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/objectstore"
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

// TestGatewayLedgersAreTheMeters runs the gateway mix as faasbench does
// and holds the tenant ledgers to the global meters, read once every job
// has finished: every invocation and request the jobs made and the
// standing cluster for its billed lifetime, priced, less the driver's
// results bucket. Stored volume also accrues while no job runs, and no
// one is charged for that, so the ledgers may fall short of the meters by
// the volume's price and by nothing else.
func TestGatewayLedgersAreTheMeters(t *testing.T) {
	m, err := newGwMix(100)
	if err != nil {
		t.Fatal(err)
	}
	var meters, volume float64
	run, err := m.run(calib.Paper(), 10000, true, func(p *des.Proc, run *loopRun) error {
		rig := run.g.Session().Rig()
		sm := rig.Store.Metrics()
		sm.ClassAOps-- // the results bucket
		volume = rig.Profile.Prices.StorageCost(objectstore.Metrics{ByteSeconds: sm.ByteSeconds})
		meters = metersUSD(rig, sm)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := run.AttributedUSD; got > meters*(1+1e-9) || got < (meters-volume)*(1-1e-9) {
		t.Errorf("tenant ledgers $%.9f, global meters x price book $%.9f, of it stored volume $%.9f", got, meters, volume)
	}
	if d := run.AttributedUSD - run.SessionUSD; d < -1e-9 || d > 1e-9 {
		t.Errorf("tenant ledgers $%.9f, session bill $%.9f", run.AttributedUSD, run.SessionUSD)
	}
	// faasbench's line, all.golden's attribution.
	if got := fmt.Sprintf("$%.4f", run.AttributedUSD); got != "$0.0620" {
		t.Errorf("tenant ledgers %s, want $0.0620", got)
	}
	t.Logf("ledgers $%.6f, meters $%.6f (stored volume $%.9f)", run.AttributedUSD, meters, volume)
}
