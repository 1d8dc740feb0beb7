package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/gateway"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
)

// The gateway experiment's traffic mix. Three tenant classes share one
// session through the gateway's admission stack:
//
//   - premium: high weight, generous rate — the paying bulk users.
//   - standard: weight 1, comfortable rate — the long tail.
//   - hammer: a deliberately tight rate limit hit by a hot arrival
//     share, so most of its traffic is rejected at the door. The
//     experiment's isolation claim is that this rejection is free for
//     everyone else: the standard class's p99 sojourn with the hammer
//     class present matches a baseline run with it removed.
const (
	gwArrivalPerSec = 150.0                  // open-loop aggregate arrival rate
	gwServiceMean   = 300 * time.Millisecond // exp-distributed job occupancy
	gwResultBytes   = 256 << 10              // per-job result object

	gwPremiumShare = 0.3 // of arrivals
	gwHammerShare  = 0.2
)

// GatewayRun is what one open-loop pass through the gateway reports,
// whatever the traffic shape.
type GatewayRun struct {
	Tenants     int
	Submissions int

	Admitted  int64
	Completed int64
	Shed      int64

	// Makespan is virtual time first-arrival to last-completion;
	// Throughput is completions over that window (jobs/virtual-s).
	Makespan   time.Duration
	Throughput float64

	// Rounds / Starved are the fair-share scheduler's counters; Starved
	// must be zero.
	Rounds  int64
	Starved int64

	// AttributedUSD is the sum of tenant ledgers; SessionUSD the fronted
	// session's closing bill, the same runs' sum plus standing cost.
	AttributedUSD float64
	SessionUSD    float64

	// Events is the number of simulation events the run fired; Wall is
	// the real time the run took; EventsPerSec is their ratio — the
	// kernel-throughput headline. Handoffs is how often the baton passed
	// between goroutines (des.Sim.Handoffs).
	Events       int64
	Wall         time.Duration
	EventsPerSec float64
	Handoffs     int64
}

// openLoop is one open-loop arrival stream pushed through the
// admission gateway on one shared session: Poisson arrivals, a tenant
// drawn per arrival, an exponentially distributed job occupancy.
type openLoop struct {
	tenants, submissions int
	// maxConcurrent is the gateway-wide slot count.
	maxConcurrent int
	arrivalPerSec float64
	serviceMean   time.Duration
	// config is tenant i's admission configuration.
	config func(i int) gateway.TenantConfig
	// pick draws the arrival's tenant. ok=false drops the arrival at
	// the source, before its service time is drawn.
	pick func(rng *rand.Rand) (tenant int, ok bool)
	// results makes every job publish a result object for a serving
	// leg; without it the workload stays off the store's links.
	results bool
	// drained, when set, runs in the driver's process once every
	// admitted job has finished.
	drained func(p *des.Proc, run *loopRun) error
}

// loopRun is one open-loop pass: its summary plus what the mix needs
// for per-class statistics and the serving leg.
type loopRun struct {
	GatewayRun
	g     *gateway.Gateway
	creds []gateway.Credential
	// admitted lists the tickets in arrival order, each with its tenant
	// index and (with results) the key of its result object.
	admitted []admission
	tenants  []gateway.TenantStats
}

type admission struct {
	tenant int
	key    string
	tk     *gateway.Ticket
}

// drive is the one open-loop driver: register every tenant up front,
// generate arrivals, drain, check every ticket finished, close the
// gateway. Rejections are the experiment (load shedding), not failures.
func (ol openLoop) drive(profile calib.Profile) (*loopRun, error) {
	sess, err := session.Open(profile, session.Options{WarmCacheNodes: 1})
	if err != nil {
		return nil, fmt.Errorf("experiments: gateway open: %w", err)
	}
	auth := gateway.HMACAuth{Secret: []byte("gateway-experiment")}
	run := &loopRun{
		GatewayRun: GatewayRun{Tenants: ol.tenants, Submissions: ol.submissions},
		g:          gateway.New(sess, auth, gateway.Options{MaxConcurrent: ol.maxConcurrent}),
		creds:      make([]gateway.Credential, ol.tenants),
	}
	for i := range run.creds {
		id := fmt.Sprintf("t%06d", i)
		run.creds[i] = gateway.Credential{TenantID: id, MAC: auth.Tag(id)}
		if err := run.g.RegisterTenant(id, ol.config(i)); err != nil {
			return nil, err
		}
	}

	rig := sess.Rig()
	var driveErr error
	rig.Sim.Spawn("open-loop", func(p *des.Proc) {
		if ol.results {
			if driveErr = objectstore.NewClient(rig.Store).CreateBucket(p, "results"); driveErr != nil {
				return
			}
		}
		rng := p.Rand()
		for i := 0; i < ol.submissions; i++ {
			p.Sleep(time.Duration(rng.ExpFloat64() * float64(time.Second) / ol.arrivalPerSec))
			ti, ok := ol.pick(rng)
			if !ok {
				continue
			}
			occupy := time.Duration(rng.ExpFloat64() * float64(ol.serviceMean))
			var key string
			if ol.results {
				key = run.g.ResultKey(run.creds[ti].TenantID, fmt.Sprintf("job-%06d", i))
			}
			tk, err := run.g.Submit(p, run.creds[ti], gwJob(occupy, key))
			if err != nil {
				if errors.Is(err, gateway.ErrRateLimited) || errors.Is(err, gateway.ErrQueueFull) {
					continue
				}
				driveErr = err
				return
			}
			run.admitted = append(run.admitted, admission{ti, key, tk})
		}
		run.g.Drain(p)
		if ol.drained != nil {
			driveErr = ol.drained(p, run)
		}
	})
	start := time.Now()
	if err := rig.Run(); err != nil {
		return nil, fmt.Errorf("experiments: gateway sim: %w", err)
	}
	run.Wall = time.Since(start)
	run.Events, run.Handoffs = rig.Sim.Fired(), rig.Sim.Handoffs()
	if run.Wall > 0 {
		run.EventsPerSec = float64(run.Events) / run.Wall.Seconds()
	}
	if driveErr != nil {
		return nil, fmt.Errorf("experiments: gateway: %w", driveErr)
	}

	var first, last time.Duration
	for i, a := range run.admitted {
		if !a.tk.Done() {
			return nil, fmt.Errorf("experiments: gateway ticket %d not done after drain", i)
		}
		if i == 0 || a.tk.Submitted < first {
			first = a.tk.Submitted
		}
		if a.tk.Finished > last {
			last = a.tk.Finished
		}
	}
	run.Makespan = last - first
	rep, err := run.g.Close()
	if err != nil {
		return nil, err
	}
	run.tenants = rep.Tenants
	for _, ts := range rep.Tenants {
		run.Admitted += ts.Admitted
		run.Completed += ts.Completed
		run.Shed += ts.Shed
	}
	if run.Makespan > 0 {
		run.Throughput = float64(run.Completed) / run.Makespan.Seconds()
	}
	run.Rounds = rep.Rounds
	run.Starved = rep.Starved
	run.AttributedUSD = rep.AttributedUSD
	run.SessionUSD = rep.Session.TotalUSD
	return run, nil
}

// gwJob is the synthetic tenant workload: occupy the rig for the drawn
// service time, then (given a key) publish a result object.
func gwJob(occupy time.Duration, resultKey string) session.Job {
	w := core.NewWorkflow("gwjob")
	if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
		ctx.Proc.Sleep(occupy)
		if resultKey == "" {
			return nil
		}
		c := objectstore.NewClient(ctx.Exec.Store)
		return c.Put(ctx.Proc, "results", resultKey, payload.Sized(gwResultBytes))
	}}); err != nil {
		panic(err) // static workflow construction cannot fail
	}
	return session.WorkflowJob(w, nil)
}

// GatewayClass summarizes one tenant class after the run.
type GatewayClass struct {
	Name    string
	Tenants int

	Submitted     int64
	Admitted      int64
	RejectedRate  int64
	RejectedQueue int64
	Completed     int64

	// P50 / P99 are sojourn quantiles (admission to completion) over
	// the class's completed jobs.
	P50, P99 time.Duration

	// USD is the class's attributed bill: metered plus standing share.
	USD float64
}

// GatewayResult is the multi-tenant gateway experiment: an open-loop
// 100-tenant mix pushed through authenticated admission, fair-share
// scheduling and ranged result serving on one shared session.
type GatewayResult struct {
	GatewayRun
	Classes []GatewayClass

	// BaselineStandardP99 is the standard class's p99 from a control
	// run with the hammer class's arrivals removed: the isolation
	// reference for Classes' standard P99.
	BaselineStandardP99 time.Duration

	// ServedBytes counts result bytes delivered through the ranged
	// serving path after the run; ForbiddenBlocked records that a
	// cross-tenant read was refused.
	ServedBytes      int64
	ForbiddenBlocked bool
}

// gwMix is the mix's tenant population by index range: premium first,
// then hammer, then standard.
type gwMix struct {
	tenants, premium, hammer int
}

func newGwMix(tenants int) (gwMix, error) {
	m := gwMix{tenants: tenants, premium: tenants / 10, hammer: tenants / 20}
	if m.premium < 1 {
		m.premium = 1
	}
	if m.hammer < 1 {
		m.hammer = 1
	}
	if m.premium+m.hammer >= tenants {
		return m, fmt.Errorf("experiments: gateway needs more than %d tenants", m.premium+m.hammer)
	}
	return m, nil
}

func (m gwMix) classOf(i int) string {
	switch {
	case i < m.premium:
		return "premium"
	case i < m.premium+m.hammer:
		return "hammer"
	default:
		return "standard"
	}
}

// sojourns collects one class's completed sojourn times, ascending.
func (m gwMix) sojourns(run *loopRun, class string) []time.Duration {
	var out []time.Duration
	for _, a := range run.admitted {
		if m.classOf(a.tenant) == class {
			out = append(out, a.tk.Sojourn())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// run pushes the mix through the gateway; withHammer toggles the hammer
// class's traffic (the control run drops those arrivals at the source,
// leaving everyone else's arrival process untouched).
func (m gwMix) run(profile calib.Profile, submissions int, withHammer bool, drained func(*des.Proc, *loopRun) error) (*loopRun, error) {
	standard := m.tenants - m.premium - m.hammer
	return openLoop{
		tenants: m.tenants, submissions: submissions, maxConcurrent: 48,
		arrivalPerSec: gwArrivalPerSec, serviceMean: gwServiceMean,
		results: true, drained: drained,
		config: func(i int) gateway.TenantConfig {
			switch m.classOf(i) {
			case "premium":
				return gateway.TenantConfig{Weight: 4, MaxConcurrent: 8, RatePerSec: 50, MaxQueued: 128}
			case "hammer":
				// ~2% of tenants carrying ~20% of arrivals against a 2/s
				// limit: the class exists to be rejected.
				return gateway.TenantConfig{Weight: 1, MaxConcurrent: 2, RatePerSec: 2, Burst: 4, MaxQueued: 32}
			default:
				return gateway.TenantConfig{Weight: 1, MaxConcurrent: 4, RatePerSec: 20, MaxQueued: 64}
			}
		},
		// Class by traffic share, tenant uniformly within the class.
		pick: func(rng *rand.Rand) (int, bool) {
			switch u := rng.Float64(); {
			case u < gwPremiumShare:
				return rng.Intn(m.premium), true
			case u < gwPremiumShare+gwHammerShare:
				return m.premium + rng.Intn(m.hammer), withHammer
			default:
				return m.premium + m.hammer + rng.Intn(standard), true
			}
		},
	}.drive(profile)
}

// Gateway runs the multi-tenant gateway experiment (defaults: 100
// tenants, 10000 submissions) plus the hammer-free control run for the
// isolation comparison.
func Gateway(profile calib.Profile, tenants, submissions int) (GatewayResult, error) {
	if tenants <= 0 {
		tenants = 100
	}
	if submissions <= 0 {
		submissions = 10000
	}
	var res GatewayResult
	m, err := newGwMix(tenants)
	if err != nil {
		return res, err
	}
	// Serving leg: the first three tenants and each class's first tenant
	// read a range of their last result through the gateway; one
	// cross-tenant read must bounce.
	serve := func(p *des.Proc, run *loopRun) error {
		lastKey := make(map[int]string)
		for _, a := range run.admitted {
			lastKey[a.tenant] = a.key
		}
		for ti := 0; ti < tenants; ti++ {
			key, ok := lastKey[ti]
			if !ok || (ti >= 3 && ti != m.premium && ti != m.premium+m.hammer) {
				continue
			}
			pl, err := run.g.ServeResult(p, run.creds[ti], key, 1024, 8192)
			if err != nil {
				return fmt.Errorf("serve %s: %w", key, err)
			}
			res.ServedBytes += pl.Size()
		}
		if len(run.admitted) > 0 {
			a := run.admitted[0]
			_, err := run.g.ServeResult(p, run.creds[(a.tenant+1)%tenants], a.key, 0, -1)
			if !errors.Is(err, gateway.ErrForbidden) {
				return fmt.Errorf("cross-tenant read of %s returned %v, want ErrForbidden", a.key, err)
			}
			res.ForbiddenBlocked = true
		}
		return nil
	}
	run, err := m.run(profile, submissions, true, serve)
	if err != nil {
		return res, err
	}
	ctrl, err := m.run(profile, submissions, false, nil)
	if err != nil {
		return res, err
	}
	res.GatewayRun = run.GatewayRun
	res.BaselineStandardP99 = faas.Percentile(m.sojourns(ctrl, "standard"), 0.99)

	res.Classes = []GatewayClass{
		{Name: "premium", Tenants: m.premium},
		{Name: "hammer", Tenants: m.hammer},
		{Name: "standard", Tenants: tenants - m.premium - m.hammer},
	}
	for i := range res.Classes {
		cls := &res.Classes[i]
		for ti, ts := range run.tenants {
			if m.classOf(ti) != cls.Name {
				continue
			}
			cls.Submitted += ts.Submitted
			cls.Admitted += ts.Admitted
			cls.RejectedRate += ts.RejectedRate
			cls.RejectedQueue += ts.RejectedQueue
			cls.Completed += ts.Completed
			cls.USD += ts.TotalUSD()
		}
		sojourns := m.sojourns(run, cls.Name)
		cls.P50 = faas.Percentile(sojourns, 0.50)
		cls.P99 = faas.Percentile(sojourns, 0.99)
	}
	return res, nil
}

// String renders the experiment.
func (r GatewayResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-tenant gateway: %d tenants, %d open-loop submissions (λ=%.0f/s, service exp(%s))\n",
		r.Tenants, r.Submissions, gwArrivalPerSec, gwServiceMean)
	fmt.Fprintf(&b, "%10s %8s %10s %10s %8s %8s %12s %12s %12s\n",
		"class", "tenants", "submitted", "admitted", "rate-rej", "done", "p50", "p99", "$")
	var standardP99 time.Duration
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "%10s %8d %10d %10d %8d %8d %12s %12s %12.4f\n",
			c.Name, c.Tenants, c.Submitted, c.Admitted, c.RejectedRate, c.Completed,
			c.P50.Round(time.Millisecond), c.P99.Round(time.Millisecond), c.USD)
		if c.Name == "standard" {
			standardP99 = c.P99
		}
	}
	fmt.Fprintf(&b, "throughput %.1f jobs/s over %.1fs virtual; %d DRR rounds, %d starved\n",
		r.Throughput, r.Makespan.Seconds(), r.Rounds, r.Starved)
	fmt.Fprintf(&b, "attribution: tenant ledgers $%.4f vs session bill $%.4f\n", r.AttributedUSD, r.SessionUSD)
	fmt.Fprintf(&b, "isolation: standard p99 %s with hammer class vs %s without (rejection is free for bystanders)\n",
		standardP99.Round(time.Millisecond), r.BaselineStandardP99.Round(time.Millisecond))
	fmt.Fprintf(&b, "serving: %d result bytes delivered by ranged reads; cross-tenant read blocked: %v\n",
		r.ServedBytes, r.ForbiddenBlocked)
	return b.String()
}

// The gateway scale experiment: one order of magnitude past the
// 100-tenant mix, on the path to the million-user north star. It
// exists to prove the two rebuilt hot paths at size — the DES kernel's
// inline 4-ary event heap and the gateway's O(active) runnable-ring
// dispatch — so alongside the usual fairness/attribution invariants it
// reports the simulator's own throughput (fired events per wall-clock
// second), the metric the kernel benchmarks gate.
const (
	gwScaleArrivalPerSec = 2000.0                // open-loop aggregate arrival rate
	gwScaleServiceMean   = 40 * time.Millisecond // exp-distributed job occupancy
	gwScaleMaxQueueWait  = 10 * time.Second      // standard-class shed deadline
)

// GatewayScale pushes an open-loop arrival stream across a large
// registered tenant population through the admission gateway on one
// shared session (defaults: 10000 tenants, 100000 submissions). Every
// tenant is registered up front — most stay idle at any instant, which
// is exactly the regime the runnable-ring dispatch must not pay for.
// Jobs only sleep: the run measures kernel and dispatch throughput.
func GatewayScale(profile calib.Profile, tenants, submissions int) (GatewayRun, error) {
	if tenants <= 0 {
		tenants = 10000
	}
	if submissions <= 0 {
		submissions = 100000
	}
	run, err := openLoop{
		tenants: tenants, submissions: submissions, maxConcurrent: 256,
		arrivalPerSec: gwScaleArrivalPerSec, serviceMean: gwScaleServiceMean,
		config: func(i int) gateway.TenantConfig {
			if i%10 == 0 { // a premium decile, so rounds exercise weights
				return gateway.TenantConfig{Weight: 4, MaxConcurrent: 8, MaxQueued: 64}
			}
			return gateway.TenantConfig{Weight: 1, MaxConcurrent: 4, MaxQueued: 64,
				MaxQueueWait: gwScaleMaxQueueWait}
		},
		pick: func(rng *rand.Rand) (int, bool) { return rng.Intn(tenants), true },
	}.drive(profile)
	if err != nil {
		return GatewayRun{Tenants: tenants, Submissions: submissions}, err
	}
	return run.GatewayRun, nil
}

// String renders the scale experiment; GatewayResult, which embeds a
// run, renders the mix instead.
func (r GatewayRun) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Gateway at scale: %d tenants, %d open-loop submissions (λ=%.0f/s, service exp(%s))\n",
		r.Tenants, r.Submissions, gwScaleArrivalPerSec, gwScaleServiceMean)
	fmt.Fprintf(&b, "admitted %d, completed %d, shed %d; %.0f jobs/s over %.1fs virtual\n",
		r.Admitted, r.Completed, r.Shed, r.Throughput, r.Makespan.Seconds())
	fmt.Fprintf(&b, "fair share: %d DRR rounds, %d starved\n", r.Rounds, r.Starved)
	fmt.Fprintf(&b, "attribution: tenant ledgers $%.4f vs session bill $%.4f\n", r.AttributedUSD, r.SessionUSD)
	fmt.Fprintf(&b, "kernel: %d events in %.2fs wall = %.2fM events/s\n",
		r.Events, r.Wall.Seconds(), r.EventsPerSec/1e6)
	return b.String()
}
