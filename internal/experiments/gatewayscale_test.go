package experiments

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
)

// TestGatewayScaleExperiment is the reduced-size smoke of the scaled
// gateway run (the full 10k-tenant / 100k-arrival shape runs via
// `faasbench -experiment gatewayscale`): the fair-share and
// attribution invariants must survive the jump in registered-tenant
// count, and the run must complete every admitted-or-shed ticket.
//
// It also pins what an arrival costs the kernel: three events (the
// generator's wake, the spawn of the job's process and its one stage's
// sleep, which runs on that process) and at most three baton handoffs.
// The four events left over are the session's and the driver's.
func TestGatewayScaleExperiment(t *testing.T) {
	tenants, submissions := 1000, 10000
	if testing.Short() {
		tenants, submissions = 200, 2000
	}
	res, err := GatewayScale(calib.Local(), tenants, submissions)
	if err != nil {
		t.Fatalf("GatewayScale: %v", err)
	}
	if res.Starved != 0 {
		t.Errorf("starved tenant-rounds = %d, want 0", res.Starved)
	}
	if d := res.AttributedUSD - res.SessionUSD; d < -1e-6 || d > 1e-6 {
		t.Errorf("attributed $%.9f vs session $%.9f (delta %g)", res.AttributedUSD, res.SessionUSD, d)
	}
	if res.Completed+res.Shed != res.Admitted {
		t.Errorf("completed %d + shed %d != admitted %d", res.Completed, res.Shed, res.Admitted)
	}
	if res.Completed < res.Admitted*9/10 {
		t.Errorf("only %d of %d admitted jobs completed — shedding dominated", res.Completed, res.Admitted)
	}
	if res.Events == 0 || res.EventsPerSec == 0 {
		t.Errorf("kernel metrics empty: %d events, %.0f events/s", res.Events, res.EventsPerSec)
	}
	arrivals := int64(submissions)
	if want := 3*arrivals + 4; res.Events != want {
		t.Errorf("%d events for %d arrivals, want 3 an arrival + 4 = %d", res.Events, arrivals, want)
	}
	if res.Handoffs > 3*arrivals {
		t.Errorf("%d baton handoffs for %d arrivals, want at most 3 an arrival", res.Handoffs, arrivals)
	}
	if res.Rounds == 0 {
		t.Error("no DRR rounds recorded")
	}
}
