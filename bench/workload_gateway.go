package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/gateway"
	"github.com/faaspipe/faaspipe/internal/session"
)

// gatewayScale is an open loop: arrivals are Poisson at a fixed
// aggregate rate over a large registered tenant population and are
// submitted on schedule whatever the gateway's backlog. Jobs only
// sleep, so the kernel's heap and process handoff, the gateway's
// admission and fair-share dispatch, and the session and executor's
// per-job overhead are all the host work there is; no link, store or
// data-plane code runs.
type gatewayScale struct {
	profile  calib.Profile
	tenants  int
	arrivals []arrival
	creds    []gateway.Credential
	auth     gateway.HMACAuth
	// meanService is the mean drawn occupancy, the no-queue ideal a
	// sojourn is compared against.
	meanService time.Duration
}

// arrival is one scheduled submission: when it is due (from the start
// of the loop), who sends it, and how long the job occupies the rig.
type arrival struct {
	due    time.Duration
	tenant int
	occupy time.Duration
}

const (
	gwArrivalPerSec   = 2000.0
	gwServiceMean     = 40 * time.Millisecond
	gwMaxQueueWait    = 10 * time.Second
	gwMaxConcurrent   = 256
	gwTickEvery       = 8192 // arrivals between offers to cut the host clock
	canonicalLoadSeed = 7
)

func (w *gatewayScale) name() string { return "gateway-scale" }

func (w *gatewayScale) prepare(seed int64, short bool) error {
	w.profile = calib.Paper()
	w.profile.Seed = seedFor(seed, streamProfile, w.profile.Seed)
	w.tenants = 10000
	submissions := 100000
	if short {
		w.tenants, submissions = 1000, 20000
	}
	rng := rand.New(rand.NewSource(seedFor(seed, streamArrivals, canonicalLoadSeed)))
	w.arrivals = make([]arrival, submissions)
	var due, service time.Duration
	for i := range w.arrivals {
		due += time.Duration(rng.ExpFloat64() * float64(time.Second) / gwArrivalPerSec)
		occupy := time.Duration(rng.ExpFloat64() * float64(gwServiceMean))
		w.arrivals[i] = arrival{due: due, tenant: rng.Intn(w.tenants), occupy: occupy}
		service += occupy
	}
	w.meanService = service / time.Duration(submissions)
	w.auth = gateway.HMACAuth{Secret: []byte("gateway-scale")}
	w.creds = make([]gateway.Credential, w.tenants)
	for i := range w.creds {
		id := fmt.Sprintf("t%06d", i)
		w.creds[i] = gateway.Credential{TenantID: id, MAC: w.auth.Tag(id)}
	}
	return nil
}

// sleepJob occupies the rig for the drawn service time and touches no
// store, so the workload stays off the links.
func sleepJob(occupy time.Duration) (session.Job, error) {
	wf := core.NewWorkflow("gwscale")
	err := wf.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
		ctx.Proc.Sleep(occupy)
		return nil
	}})
	return session.WorkflowJob(wf, nil), err
}

func (w *gatewayScale) rep(tr *tracer, clk *hostClock) (*outcome, error) {
	out := newOutcome()

	sp := tr.begin("gateway/open", kindUnit)
	sess, err := session.Open(w.profile, session.Options{WarmCacheNodes: 1})
	if err != nil {
		return nil, fmt.Errorf("gateway-scale: open: %w", err)
	}
	g := gateway.New(sess, w.auth, gateway.Options{MaxConcurrent: gwMaxConcurrent})
	for i, cred := range w.creds {
		cfg := gateway.TenantConfig{Weight: 1, MaxConcurrent: 4, MaxQueued: 64, MaxQueueWait: gwMaxQueueWait}
		if i%10 == 0 { // a premium decile, so rounds exercise weights
			cfg.Weight, cfg.MaxConcurrent, cfg.MaxQueueWait = 4, 8, 0
		}
		if err := g.RegisterTenant(cred.TenantID, cfg); err != nil {
			return nil, err
		}
	}
	tr.end(sp)
	clk.tick()

	rig := sess.Rig()
	var (
		tickets  = make([]*gateway.Ticket, len(w.arrivals)) // nil: rejected at admission
		t0       time.Duration
		rejected int
		driveErr error
	)
	rig.Sim.Spawn("open-loop", func(p *des.Proc) {
		t0 = p.Now()
		for i, a := range w.arrivals {
			p.Sleep(t0 + a.due - p.Now())
			if i%gwTickEvery == 0 {
				// The generator runs alone while it holds the simulation's
				// single thread of control, so the event loop can be cut
				// here without disturbing it: virtual time does not move.
				clk.tick()
			}
			job, err := sleepJob(a.occupy)
			if err != nil {
				driveErr = err
				return
			}
			tk, err := g.Submit(p, w.creds[a.tenant], job)
			switch {
			case err == nil:
				tickets[i] = tk
			case errors.Is(err, gateway.ErrQueueFull) || errors.Is(err, gateway.ErrRateLimited):
				rejected++
			default:
				driveErr = err
				return
			}
		}
		g.Drain(p)
	})
	sp = tr.begin("gateway/drain", kindUnit)
	err = rig.Sim.Run()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("gateway-scale: sim: %w", err)
	}
	if driveErr != nil {
		return nil, fmt.Errorf("gateway-scale: %w", driveErr)
	}

	// Sojourn is timed from when the submission was due, not from when
	// it was admitted, so a stalled generator would count against the
	// system; late is how far behind schedule the generator ever ran.
	sojourns := make([]float64, 0, len(tickets))
	var last, late time.Duration
	var errored, shed int
	for i, tk := range tickets {
		if tk == nil {
			continue
		}
		due := t0 + w.arrivals[i].due
		if !tk.Done() {
			out.fail("ticket %d not done after drain", i)
			continue
		}
		if d := tk.Submitted - due; d > late {
			late = d
		}
		if _, err := tk.Report(); err != nil {
			if errors.Is(err, gateway.ErrDeadlineExceeded) {
				shed++
			} else {
				errored++
			}
			continue
		}
		sojourns = append(sojourns, (tk.Finished - due).Seconds())
		if tk.Finished > last {
			last = tk.Finished
		}
	}
	sort.Float64s(sojourns)
	events := rig.Sim.Fired()

	sp = tr.begin("gateway/close", kindUnit)
	rep, err := g.Close()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var admitted, completed, shedLedger, rateRejected, queueRejected int64
	for _, ts := range rep.Tenants {
		admitted += ts.Admitted
		completed += ts.Completed
		shedLedger += ts.Shed
		rateRejected += ts.RejectedRate
		queueRejected += ts.RejectedQueue
	}

	out.attempted = len(w.arrivals)
	out.failed += rejected + shed + errored
	if out.failed > 0 {
		out.failures = append(out.failures, fmt.Sprintf("%d rejected, %d shed, %d errored of %d submissions",
			rejected, shed, errored, len(w.arrivals)))
	}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			out.failures = append(out.failures, fmt.Sprintf(format, args...))
			out.failed++
		}
	}
	check(completed+shedLedger == admitted, "completed %d + shed %d != admitted %d", completed, shedLedger, admitted)
	check(rep.Starved == 0, "%d tenant-rounds starved", rep.Starved)
	check(late == 0, "generator ran %s behind schedule", late)
	check(relErr(rep.AttributedUSD, rep.Session.TotalUSD) < 1e-6,
		"tenant ledgers $%.9f != session bill $%.9f", rep.AttributedUSD, rep.Session.TotalUSD)
	if len(sojourns) == 0 {
		return nil, fmt.Errorf("gateway-scale: no ticket completed")
	}

	_, tail, ok := tailPercentile(sojourns)
	if !ok {
		tail = sojourns[len(sojourns)-1]
	}
	out.sim["virtual_s"] = (last - (t0 + w.arrivals[0].due)).Seconds()
	out.sim["usd"] = rep.Session.TotalUSD
	out.sim["fast_virtual_s"] = percentileNearestRank(sojourns, 0.5)
	out.sim["tail_virtual_s"] = tail
	out.sim["slowdown_max"] = tail / w.meanService.Seconds()
	out.counters["des.events"] = float64(events)
	out.counters["gateway.admitted"] = float64(admitted)
	out.counters["gateway.completed"] = float64(completed)
	out.counters["gateway.shed"] = float64(shedLedger)
	out.counters["gateway.rate_rejected"] = float64(rateRejected)
	out.counters["gateway.queue_rejected"] = float64(queueRejected)
	out.counters["gateway.rounds"] = float64(rep.Rounds)
	out.counters["gateway.starved"] = float64(rep.Starved)
	out.counters["gateway.generator_late_virtual_s"] = late.Seconds()
	return out, nil
}
