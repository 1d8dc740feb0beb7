// Package gateway is the multi-tenant front door of the session
// runtime: the middleware layer between external tenants and the
// shared rig. A submission passes through token authentication
// (pluggable Authenticator), per-tenant admission control (token-
// bucket rate limit, bounded pending queue), weighted deficit-round-
// robin fair-share scheduling onto the session's shared cloud, and —
// once the job's output lands in the object store — ranged result
// serving straight off objectstore.Client without re-buffering
// through the gateway.
//
// Everything runs under the session's DES clock: Submit and
// ServeResult are called from simulated process context, jobs execute
// as session.SubmitIn runs on gateway-spawned processes, and cost
// attribution rides the session's standing-cost windows, so every
// tenant's bill (metered + standing share) sums to the session's own
// closing report.
package gateway

import (
	"errors"
	"fmt"
	"time"

	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
)

// Typed admission and lifecycle errors, all errors.Is-able through
// the wrapping Submit applies.
var (
	// ErrUnknownTenant: the credential authenticated an identity the
	// gateway has no registration for.
	ErrUnknownTenant = errors.New("gateway: unknown tenant")
	// ErrRateLimited: the tenant's token bucket had no token to cover
	// the submission — over-rate traffic is rejected, not queued, so
	// one abusive tenant cannot grow the shared backlog.
	ErrRateLimited = errors.New("gateway: rate limited")
	// ErrQueueFull: the tenant's pending queue is at MaxQueued.
	ErrQueueFull = errors.New("gateway: pending queue full")
	// ErrGatewayClosed: Submit or ServeResult after Close.
	ErrGatewayClosed = errors.New("gateway: closed")
	// ErrDeadlineExceeded: the job outwaited its tenant's MaxQueueWait
	// in the pending queue and was shed before dispatch. The submitter
	// learns through Ticket.Wait — admission already succeeded.
	ErrDeadlineExceeded = errors.New("gateway: queue deadline exceeded")
	// ErrForbidden: an authenticated tenant asked for another tenant's
	// result object.
	ErrForbidden = errors.New("gateway: forbidden")
)

// Options configure the gateway's shared capacity.
type Options struct {
	// MaxConcurrent caps jobs in flight across all tenants (default 16):
	// the rig's shared execution capacity the fair-share scheduler
	// divides.
	MaxConcurrent int
}

// resultBucket is the bucket finished jobs publish outputs into and
// ServeResult reads from.
const resultBucket = "results"

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 16
	}
	return o
}

// TenantConfig is one tenant's admission contract.
type TenantConfig struct {
	// Weight is the fair-share weight: credits per scheduling round
	// (default, and minimum, 1).
	Weight int
	// MaxConcurrent caps this tenant's jobs in flight (default 4).
	MaxConcurrent int
	// RatePerSec is the submission token-bucket refill rate; <= 0
	// disables rate limiting for the tenant.
	RatePerSec float64
	// Burst is the token-bucket capacity (default max(1, RatePerSec)).
	Burst float64
	// MaxQueued bounds the tenant's pending queue (default 64).
	MaxQueued int
	// MaxQueueWait bounds how long an admitted job may sit in the
	// pending queue: a ticket queued strictly longer is shed at the
	// next dispatch with ErrDeadlineExceeded instead of launching
	// stale work nobody is waiting for. Zero disables shedding.
	MaxQueueWait time.Duration
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Weight < 1 {
		c.Weight = 1
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.Burst <= 0 {
		c.Burst = c.RatePerSec
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	return c
}

// tenant is the gateway-side state of one registered tenant.
type tenant struct {
	id     string
	cfg    TenantConfig
	bucket *des.TokenBucket // nil: unlimited
	// procPrefix names the tenant's job processes, "gw/<id>/" followed
	// by the gateway's launch sequence number.
	procPrefix string

	pending  fifo[queuedJob]
	inflight int
	class    *waitClass // nil: no MaxQueueWait

	// runnable marks the tenant as a member of the scheduler's
	// runnable ring (it has pending work the DRR rounds must cover).
	runnable bool

	// deficit is the tenant's unspent credit in the current DRR round;
	// pendingAtRoundStart / launchedInRound drive the starvation
	// invariant check.
	deficit             float64
	pendingAtRoundStart bool
	launchedInRound     int

	stats TenantStats
}

// Gateway is the admission front door over one open session. Like the
// session and the simulation it drives, it is single-threaded: all
// methods taking a *des.Proc must run in process context.
type Gateway struct {
	sess  *session.Session
	sim   *des.Sim
	auth  Authenticator
	opts  Options
	store *objectstore.Client

	tenants map[string]*tenant
	order   []*tenant // registration order: for reporting

	// runnable is the DRR ring: only tenants with pending work, in the
	// order they became runnable. Dispatch, crediting, and starvation
	// accounting touch this ring exclusively, so scheduling cost
	// follows the active population, not the registration table —
	// 100k registered-but-idle tenants cost dispatch nothing.
	runnable []*tenant
	rrPos    int // round-robin scan cursor within a round

	// classes holds one shed queue per distinct MaxQueueWait, which a
	// tenant finds at registration; shedding lists the classes that
	// hold a ticket, so dispatch sheds exactly the overdue tickets
	// without visiting idle tenants or idle classes.
	classes  map[time.Duration]*waitClass
	shedding []*waitClass

	pendingTotal int
	active       int
	seq          int64

	// starting holds the launched jobs whose processes have not started
	// yet, in launch order. runFn is runStarting, bound once in New: the
	// body of every job process, so a launch allocates no closure.
	starting fifo[startingJob]
	runFn    func(p *des.Proc)

	rounds  int64
	starved int64

	drainWaiters []*des.Proc
	closed       bool
}

// New wraps an open session. The gateway owns submission admission
// from here on; the caller should not mix direct sess.Submit calls
// with gateway traffic (standing attribution stays correct, but the
// bypassed jobs belong to no tenant).
func New(sess *session.Session, auth Authenticator, opts Options) *Gateway {
	g := &Gateway{
		sess:    sess,
		sim:     sess.Rig().Sim,
		auth:    auth,
		opts:    opts.withDefaults(),
		store:   objectstore.NewClient(sess.Rig().Store),
		tenants: make(map[string]*tenant),
		classes: make(map[time.Duration]*waitClass),
	}
	g.runFn = g.runStarting
	return g
}

// Session exposes the fronted session.
func (g *Gateway) Session() *session.Session { return g.sess }

// RegisterTenant admits a tenant identity into the gateway's tables.
// Authentication proves who a caller is; registration decides they may
// submit at all, and under what contract.
func (g *Gateway) RegisterTenant(id string, cfg TenantConfig) error {
	if id == "" {
		return errors.New("gateway: empty tenant id")
	}
	if _, ok := g.tenants[id]; ok {
		return fmt.Errorf("gateway: tenant %q already registered", id)
	}
	cfg = cfg.withDefaults()
	t := &tenant{id: id, cfg: cfg, procPrefix: "gw/" + id + "/"}
	t.stats.ID = id
	t.stats.Weight = cfg.Weight
	if cfg.RatePerSec > 0 {
		t.bucket = des.NewTokenBucket(g.sim, cfg.RatePerSec, cfg.Burst)
	}
	if w := cfg.MaxQueueWait; w > 0 {
		if t.class = g.classes[w]; t.class == nil {
			t.class = &waitClass{wait: w}
			g.classes[w] = t.class
		}
	}
	g.tenants[id] = t
	g.order = append(g.order, t)
	return nil
}

// Ticket is one admitted submission's handle: its queue timeline and,
// once the job ran, its report.
type Ticket struct {
	// Tenant is the authenticated submitter.
	Tenant string
	// Submitted / Started / Finished are virtual timestamps: admission
	// into the pending queue, dispatch onto the session, completion.
	Submitted time.Duration
	Started   time.Duration
	Finished  time.Duration

	queued  bool // still in its tenant's pending queue
	done    bool
	rep     *core.RunReport
	err     error
	waiters []*des.Proc
}

// Sojourn is the ticket's queue-to-completion time, the latency a
// tenant observes.
func (tk *Ticket) Sojourn() time.Duration { return tk.Finished - tk.Submitted }

// Queued is the time spent waiting for a fair-share slot.
func (tk *Ticket) Queued() time.Duration { return tk.Started - tk.Submitted }

// Done reports whether the job has completed.
func (tk *Ticket) Done() bool { return tk.done }

// Report returns the completed run's report and error; both nil/zero
// until Done.
func (tk *Ticket) Report() (*core.RunReport, error) { return tk.rep, tk.err }

// Wait parks p until the job completes, then returns its report.
func (tk *Ticket) Wait(p *des.Proc) (*core.RunReport, error) {
	for !tk.done {
		tk.waiters = append(tk.waiters, p)
		p.Park()
	}
	return tk.rep, tk.err
}

func (tk *Ticket) finish(rep *core.RunReport, err error, at time.Duration) {
	tk.rep, tk.err = rep, err
	tk.Finished = at
	tk.done = true
	for _, w := range tk.waiters {
		w.Wake()
	}
	tk.waiters = nil
}

// Submit runs the full admission stack for one job: authenticate,
// rate-limit, bound the queue, enqueue for fair-share dispatch. It
// never blocks the submitter — over-rate or over-queue traffic is
// rejected with a typed error, which is what keeps one tenant's burst
// from costing anyone else latency.
func (g *Gateway) Submit(p *des.Proc, cred Credential, job session.Job) (*Ticket, error) {
	if g.closed {
		return nil, ErrGatewayClosed
	}
	t, err := g.admitTenant(cred)
	if err != nil {
		return nil, err
	}
	t.stats.Submitted++
	if t.bucket != nil && !t.bucket.TryTake(1) {
		t.stats.RejectedRate++
		return nil, fmt.Errorf("gateway: tenant %q: %w", t.id, ErrRateLimited)
	}
	if t.pending.len() >= t.cfg.MaxQueued {
		t.stats.RejectedQueue++
		return nil, fmt.Errorf("gateway: tenant %q: %w", t.id, ErrQueueFull)
	}
	tk := &Ticket{Tenant: t.id, Submitted: p.Now(), queued: true}
	t.pending.push(queuedJob{tk: tk, job: job})
	g.pendingTotal++
	t.stats.Admitted++
	g.enterRunnable(t)
	if c := t.class; c != nil {
		c.q.push(tk)
		if !c.listed {
			c.listed = true
			g.shedding = append(g.shedding, c)
		}
	}
	g.dispatch()
	return tk, nil
}

// enterRunnable admits a tenant into the DRR ring when its first
// pending ticket arrives. Entry grants at least one round's credit
// (capped by the usual two-round bank) so a freshly-woken tenant is
// dispatchable without waiting out the in-progress round; under
// contention tenants never leave the ring, so the grant cannot be
// farmed for extra share.
func (g *Gateway) enterRunnable(t *tenant) {
	if t.runnable {
		return
	}
	t.runnable = true
	if w := float64(t.cfg.Weight); t.deficit < w {
		t.deficit = w
	}
	g.runnable = append(g.runnable, t)
}

// admitTenant resolves a credential to a registered tenant.
func (g *Gateway) admitTenant(cred Credential) (*tenant, error) {
	id, err := g.auth.Authenticate(cred)
	if err != nil {
		return nil, err
	}
	t := g.tenants[id]
	if t == nil {
		return nil, fmt.Errorf("gateway: tenant %q: %w", id, ErrUnknownTenant)
	}
	return t, nil
}

// launch moves a tenant's head-of-queue job onto the session, running
// it on its own simulated process.
func (g *Gateway) launch(t *tenant) {
	qj := t.pending.pop()
	tk := qj.tk
	tk.queued = false
	if t.class != nil {
		t.class.noteLaunch()
	}
	g.pendingTotal--
	t.inflight++
	t.launchedInRound++
	g.active++
	tk.Started = g.sim.Now()
	g.seq++
	g.starting.push(startingJob{t: t, queuedJob: qj})
	g.sim.SpawnNumbered(t.procPrefix, g.seq, g.runFn)
}

// runStarting is the body of every job process. It takes the oldest
// launched job off the starting queue, which is its own: processes
// spawned at one instant start in the order they were spawned, and
// launches at later instants queue behind them. (A run that stops
// discards the job processes not yet started and leaves their jobs
// here, as it leaves their tickets unfinished: a gateway does not
// outlive a stopped run.)
func (g *Gateway) runStarting(p *des.Proc) {
	sj := g.starting.pop()
	t, tk := sj.t, sj.tk
	rep, err := g.sess.SubmitIn(p, sj.job)
	t.inflight--
	g.active--
	t.stats.Completed++
	if err != nil {
		t.stats.Failed++
	}
	if rep != nil {
		t.stats.MeteredUSD += rep.MeteredUSD()
		t.stats.StandingUSD += rep.StandingUSD
		t.stats.BusyTime += rep.Latency()
	}
	tk.finish(rep, err, p.Now())
	g.dispatch()
	if g.pendingTotal == 0 && g.active == 0 {
		for _, w := range g.drainWaiters {
			w.Wake()
		}
		g.drainWaiters = nil
	}
}

// Drain parks p until no job is pending or in flight. Admission stays
// open, so a drain only holds if submitters have stopped.
func (g *Gateway) Drain(p *des.Proc) {
	for g.pendingTotal > 0 || g.active > 0 {
		g.drainWaiters = append(g.drainWaiters, p)
		p.Park()
	}
}

// Close shuts the front door and the session behind it, returning the
// gateway's closing account. It must be called with no work in flight
// (after the simulation drained or after Drain) and not from process
// context, mirroring session.Close.
func (g *Gateway) Close() (Report, error) {
	if g.closed {
		return Report{}, ErrGatewayClosed
	}
	if g.pendingTotal > 0 || g.active > 0 {
		return Report{}, fmt.Errorf("gateway: Close with %d pending / %d in-flight jobs",
			g.pendingTotal, g.active)
	}
	g.closed = true
	sr, err := g.sess.Close()
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Session: sr,
		Tenants: make([]TenantStats, 0, len(g.order)),
		Rounds:  g.rounds,
		Starved: g.starved,
	}
	for _, t := range g.order {
		rep.Tenants = append(rep.Tenants, t.stats)
		rep.AttributedUSD += t.stats.TotalUSD()
	}
	return rep, nil
}
