package gateway

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/session"
)

// TenantStats is one tenant's ledger: the admission funnel, the work
// delivered, and the bill.
type TenantStats struct {
	ID     string
	Weight int

	// Submitted counts authenticated Submit calls; Admitted the subset
	// that entered the queue; RejectedRate / RejectedQueue the typed
	// rejections.
	Submitted     int64
	Admitted      int64
	RejectedRate  int64
	RejectedQueue int64

	// Completed counts finished jobs (Failed the erroring subset).
	Completed int64
	Failed    int64

	// Shed counts admitted jobs dropped from the pending queue for
	// outwaiting MaxQueueWait — work the gateway declined to run, so
	// counted in neither Completed nor Failed.
	Shed int64

	// StarvedRounds counts DRR rounds this tenant sat out with work
	// pending while others launched — zero for a correct scheduler.
	StarvedRounds int64

	// BusyTime is the summed run latency of the tenant's jobs.
	BusyTime time.Duration

	// MeteredUSD is the summed per-run metered cost; StandingUSD the
	// tenant's share of the session's standing-resource spend,
	// partitioned by the session's attribution windows.
	MeteredUSD  float64
	StandingUSD float64

	// BytesServed counts result bytes delivered through ServeResult.
	BytesServed int64
}

// TotalUSD is the tenant's full attributed bill.
func (s TenantStats) TotalUSD() float64 { return s.MeteredUSD + s.StandingUSD }

// Report is the gateway's closing account: the fronted session's own
// report plus the per-tenant ledgers that partition it.
type Report struct {
	Session session.Report
	Tenants []TenantStats

	// Rounds counts DRR scheduling rounds; Starved the tenant-rounds
	// lost to starvation (zero for a correct scheduler).
	Rounds  int64
	Starved int64

	// AttributedUSD sums every tenant's TotalUSD. With all traffic
	// gateway-admitted it is Session.TotalUSD summed another way: the
	// per-tenant ledgers partition the session's runs.
	AttributedUSD float64
}

// String renders the closing account.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gateway: %d tenant(s), %d round(s), %d starved\n",
		len(r.Tenants), r.Rounds, r.Starved)
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  %-12s w=%d  %5d sub %5d adm %4d rl %4d qf %4d shed  %5d done  $%.4f\n",
			t.ID, t.Weight, t.Submitted, t.Admitted, t.RejectedRate, t.RejectedQueue,
			t.Shed, t.Completed, t.TotalUSD())
	}
	fmt.Fprintf(&b, "  attributed $%.4f of session $%.4f\n", r.AttributedUSD, r.Session.TotalUSD)
	return b.String()
}
