// Package session is the multi-job runtime of the redesigned
// execution API: one simulated cloud opened once, any number of
// declarative documents or hand-built workflows submitted against it,
// and a close report that accounts for everything the session spent.
//
// Where pipeline.Run provisions a fresh cloud per document, a Session
// owns one rig across submissions, so resources amortize the way they
// do for a long-lived middleware deployment (the ALTK/SAGAI-MID-style
// stable runtime layer): a warm cache cluster or a running VM is paid
// for once and shared by every job, with its standing cost attributed
// to each RunReport instead of silently vanishing; and the
// auto-planner's measured history carries from one Submit to the next,
// so later plans are calibrated by earlier runs (closing the
// PlannerRegret loop).
//
// Usage:
//
//	sess, err := session.Open(calib.Paper(), session.Options{WarmCacheNodes: 2})
//	rep1, err := sess.Submit(doc.Job(pipeline.JobConfig{DataBytes: 3500e6}))
//	rep2, err := sess.Submit(doc.Job(pipeline.JobConfig{DataBytes: 3500e6}))
//	report, err := sess.Close()
package session

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/lists"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// ErrSessionClosed is the typed lifecycle error: Submit (in either
// form) after Close, and a second Close, both return errors wrapping
// it, so callers can errors.Is instead of string-matching.
var ErrSessionClosed = errors.New("session: closed")

// Options configure what a session keeps running between submissions.
type Options struct {
	// Listeners observe every submission's run (progress trackers).
	Listeners []core.Listener
	// WarmCacheNodes, when positive, provisions a standing cache
	// cluster of that many nodes at Open. Cache exchanges in every
	// submission share it: no per-job spin-up, and its node-hours are
	// attributed as standing cost instead of to individual stages.
	WarmCacheNodes int
	// StandingVMType, when non-empty, provisions a running instance of
	// that catalog type at Open; VM exchanges stage through it instead
	// of booting their own.
	StandingVMType string
	// Chaos, when set, is a fault schedule armed against the session's
	// rig at Open, once the standing resources are up: its events (spot
	// preemption, cache-node loss, object-storage brownout) fire at
	// their virtual times while submissions run, and one due before the
	// session opened fires as the first submission starts. The fired
	// log is available via Session.Chaos.
	Chaos *chaos.Plan
}

// Job is one unit of submission: how to bind a workflow to the
// session's rig and how to stage its input data.
type Job struct {
	// Name labels the submission (defaults to the workflow name).
	Name string
	// Build binds the job to the session's rig; called once per Submit.
	Build func(rig *calib.Rig) (*core.Workflow, error)
	// Prepare, when set, runs in simulated process context before the
	// workflow starts (bucket creation, dataset staging).
	Prepare func(p *des.Proc, rig *calib.Rig) error
	// DescribeTo, when set, receives the workflow's DAG rendering
	// before the run starts.
	DescribeTo io.Writer
}

// WorkflowJob wraps an already-built workflow as a Job. prepare may be
// nil when the session's store already holds the input.
func WorkflowJob(w *core.Workflow, prepare func(p *des.Proc, rig *calib.Rig) error) Job {
	return Job{
		Name:    w.Name(),
		Build:   func(*calib.Rig) (*core.Workflow, error) { return w, nil },
		Prepare: prepare,
	}
}

// Session is an open multi-job runtime. Not safe for concurrent use;
// like the simulation it drives, it is a single-threaded control loop.
type Session struct {
	rig *calib.Rig

	opened time.Duration
	// attributedUSD is the standing cost already charged to runs: what
	// the standing resources had accrued as of the last completed run's
	// end. Standing cost is asked as of run ends rather than read off
	// the resources at observation time: the simulation clock drifts
	// past a run's end while trailing timers (token-bucket refills,
	// keep-alive expiries) drain, and that dead virtual time is nobody's
	// bill.
	attributedUSD float64
	runs          lists.Chunked[*core.RunReport] // in submission order
	seq           int
	closed        bool

	armed *chaos.Armed
}

// Open provisions the session: one simulated cloud with the built-in
// functions registered, plus whatever standing resources the options
// ask for (their spin-up runs on the virtual clock before Open
// returns, and their cost accrues until Close).
func Open(profile calib.Profile, opts Options) (*Session, error) {
	rig, err := calib.NewRig(profile)
	if err != nil {
		return nil, err
	}
	if err := genomics.RegisterFunctions(rig.Platform); err != nil {
		return nil, err
	}
	for _, l := range opts.Listeners {
		rig.Exec.AddListener(l)
	}
	s := &Session{rig: rig, runs: lists.Chunked[*core.RunReport]{Chunk: 1024}}
	if opts.WarmCacheNodes > 0 || opts.StandingVMType != "" {
		var provErr error
		rig.Sim.Spawn("session-open", func(p *des.Proc) {
			if opts.WarmCacheNodes > 0 {
				rig.Exec.StandingCache, provErr = rig.CacheProv.Provision(p, opts.WarmCacheNodes)
				if provErr != nil {
					return
				}
			}
			if opts.StandingVMType != "" {
				rig.Exec.StandingVM, provErr = rig.Prov.Provision(p, opts.StandingVMType)
			}
		})
		if err := rig.Run(); err != nil {
			return nil, fmt.Errorf("session: open: %w", err)
		}
		if provErr != nil {
			return nil, fmt.Errorf("session: open: %w", provErr)
		}
	}
	s.opened = rig.Sim.Now()
	// Armed only now: Run above drains the event heap, and a schedule
	// already on it would have been fired to its last event inside Open.
	if opts.Chaos != nil {
		s.armed, err = opts.Chaos.Arm(rig.Sim, chaos.Targets{
			VMs:   rig.Prov,
			Cache: rig.CacheProv,
			Store: rig.Store,
		})
		if err != nil {
			return nil, fmt.Errorf("session: chaos plan: %w", err)
		}
	}
	return s, nil
}

// Rig exposes the session's simulated cloud for inspection and for
// hand-built workflows that need its strategies.
func (s *Session) Rig() *calib.Rig { return s.rig }

// History exposes the auto-planner's accumulated predicted-vs-actual
// observations.
func (s *Session) History() *autoplan.History { return s.rig.History }

// Chaos exposes the armed fault schedule's fired log (nil when the
// session was opened without one).
func (s *Session) Chaos() *chaos.Armed { return s.armed }

// standingUSD is what the session-owned resources had accrued as of the
// instant at, priced by the rig's price book: node-hours of the standing
// cluster, instance-hours and boot volume of the standing instance, each
// from its provisioning request to at or to when it stopped billing (a
// reclaimed instance stops there).
func (s *Session) standingUSD(at time.Duration) float64 {
	var usd float64
	if c := s.rig.Exec.StandingCache; c != nil {
		usd += s.rig.Profile.Prices.CacheCostAt([]*memcache.Cluster{c}, at)
	}
	if inst := s.rig.Exec.StandingVM; inst != nil {
		usd += s.rig.Profile.Prices.VMCostAt([]*vm.Instance{inst}, at)
	}
	return usd
}

// Submit builds and executes one job on the session's cloud, blocking
// until the virtual run completes. The returned report is complete
// even on stage error (matching Executor.Run); its StandingUSD carries
// this submission's share of session-owned resource cost: everything
// accrued since the previous attribution point, spin-up and idle time
// included.
func (s *Session) Submit(job Job) (*core.RunReport, error) {
	w, name, err := s.buildJob(job)
	if err != nil {
		return nil, err
	}
	s.seq++
	var (
		rep    *core.RunReport
		runErr error
	)
	s.rig.Sim.Spawn(fmt.Sprintf("submit-%03d/%s", s.seq, name), func(p *des.Proc) {
		rep, runErr = s.runJob(p, job, w)
	})
	if err := s.rig.Run(); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return rep, runErr
}

// SubmitIn is Submit for callers already inside the simulation: it
// builds and runs the job on p's process without driving the clock,
// so any number of SubmitIn calls from concurrently running processes
// share the session's rig at the same virtual time — the submission
// hook a gateway or scheduler layers admission on top of. Standing
// cost is attributed at each run's completion instant: completions
// partition the standing timeline, so concurrent runs' StandingUSD
// shares always sum to the session total.
func (s *Session) SubmitIn(p *des.Proc, job Job) (*core.RunReport, error) {
	w, _, err := s.buildJob(job)
	if err != nil {
		return nil, err
	}
	s.seq++
	return s.runJob(p, job, w)
}

// buildJob validates and binds a job to the rig, shared by both
// submission paths.
func (s *Session) buildJob(job Job) (*core.Workflow, string, error) {
	if s.closed {
		return nil, "", fmt.Errorf("session: Submit after Close: %w", ErrSessionClosed)
	}
	if job.Build == nil {
		return nil, "", errors.New("session: job has no Build")
	}
	w, err := job.Build(s.rig)
	if err != nil {
		return nil, "", err
	}
	if job.DescribeTo != nil {
		fmt.Fprint(job.DescribeTo, w.Describe())
	}
	name := job.Name
	if name == "" {
		name = w.Name()
	}
	return w, name, nil
}

// runJob executes a built job in process context and records its
// report. Completion order equals virtual-time order, so the standing
// attribution windows stay monotone even across concurrent runs.
func (s *Session) runJob(p *des.Proc, job Job, w *core.Workflow) (*core.RunReport, error) {
	if job.Prepare != nil {
		if err := job.Prepare(p, s.rig); err != nil {
			return nil, err
		}
	}
	rep, runErr := s.rig.Exec.Run(p, w)
	if rep != nil {
		accrued := s.standingUSD(rep.End)
		rep.StandingUSD = accrued - s.attributedUSD
		s.attributedUSD = accrued
		s.runs.Add(rep)
	}
	return rep, runErr
}

// Report is the session's closing account.
type Report struct {
	// Profile names the performance model the session ran under.
	Profile string
	// Submissions counts completed Submit calls (reports kept).
	Submissions int
	// Runs are the per-submission reports, in order.
	Runs []*core.RunReport
	// Opened / Closed are virtual timestamps bounding the session.
	Opened, Closed time.Duration
	// StandingUSD is the full standing-resource spend, provisioning
	// request to deprovisioning. With submissions it equals the sum of
	// the runs' attributed shares (Close deprovisions at the last
	// run's end, so no tail accrues after it); with none, it is the
	// spin-up window nobody used.
	StandingUSD float64
	// TotalUSD is the session's complete bill: every run's metered cost
	// plus the entire standing spend.
	TotalUSD float64
}

// Close stops the session's standing resources and returns the closing
// account. The session deprovisions at the last run's end: standing
// billing covers provisioning request through last use (with no
// submissions, through the end of spin-up). Further Submits fail;
// Close is not idempotent (the second call errors, the account having
// already been rendered).
func (s *Session) Close() (Report, error) {
	if s.closed {
		return Report{}, fmt.Errorf("session: already closed: %w", ErrSessionClosed)
	}
	s.closed = true
	if c := s.rig.Exec.StandingCache; c != nil {
		c.Stop()
	}
	if inst := s.rig.Exec.StandingVM; inst != nil {
		inst.Stop()
	}
	runs := s.runs.Flatten()
	closedAt := s.opened
	if n := len(runs); n > 0 {
		closedAt = runs[n-1].End
	}
	rep := Report{
		Profile:     s.rig.Profile.Name,
		Submissions: len(runs),
		Runs:        runs,
		Opened:      s.opened,
		Closed:      closedAt,
		StandingUSD: s.standingUSD(closedAt),
	}
	for _, r := range runs {
		rep.TotalUSD += r.MeteredUSD()
	}
	rep.TotalUSD += rep.StandingUSD
	return rep, nil
}

// String renders the closing account.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "session on %s: %d submission(s), %.1fs of virtual time\n",
		r.Profile, r.Submissions, (r.Closed - r.Opened).Seconds())
	for i, run := range r.Runs {
		fmt.Fprintf(&b, "  run %d %-20s %8.2fs  $%.4f metered + $%.4f standing = $%.4f\n",
			i+1, run.Workflow, run.Latency().Seconds(),
			run.MeteredUSD(), run.StandingUSD, run.TotalUSD())
	}
	if r.StandingUSD > 0 {
		fmt.Fprintf(&b, "  standing resources: $%.4f total\n", r.StandingUSD)
	}
	fmt.Fprintf(&b, "  session total: $%.4f\n", r.TotalUSD)
	return b.String()
}
