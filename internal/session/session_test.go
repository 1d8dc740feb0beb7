package session_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/pipeline"
	"github.com/faaspipe/faaspipe/internal/session"
	"github.com/faaspipe/faaspipe/internal/vm"
)

const cacheDoc = `{
  "name": "cache-pipe",
  "input": {"bucket": "data", "key": "sample.bed"},
  "workBucket": "work",
  "stages": [
    {"name": "sort", "type": "shuffle", "strategy": "cache", "workers": 4}
  ]
}`

// TestSharedWarmCacheAcrossSubmissions: multiple submissions exchange
// through the one session-owned cluster — no per-job provisioning —
// and the session's total cost beats the same jobs run independently.
func TestSharedWarmCacheAcrossSubmissions(t *testing.T) {
	profile := calib.Paper()
	d, err := pipeline.Load([]byte(cacheDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	const jobs = 2
	dataBytes := int64(3500e6)

	sess, err := session.Open(profile, session.Options{WarmCacheNodes: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var sharedRuns []*core.RunReport
	for i := 0; i < jobs; i++ {
		rep, err := sess.Submit(d.Job(pipeline.JobConfig{DataBytes: dataBytes}))
		if err != nil {
			t.Fatalf("Submit %d: %v", i+1, err)
		}
		sharedRuns = append(sharedRuns, rep)
	}
	if got := len(sess.Rig().CacheProv.Clusters()); got != 1 {
		t.Fatalf("clusters provisioned = %d, want 1 (shared)", got)
	}
	if sess.Rig().Exec.StandingCache.Stopped() {
		t.Fatal("standing cluster stopped mid-session")
	}
	if sharedRuns[0].StandingUSD <= sharedRuns[1].StandingUSD {
		t.Errorf("first run's standing share (%f) should carry the spin-up window (second: %f)",
			sharedRuns[0].StandingUSD, sharedRuns[1].StandingUSD)
	}
	report, err := sess.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !sess.Rig().Exec.StandingCache.Stopped() {
		t.Error("Close left the standing cluster running")
	}
	if report.Submissions != jobs {
		t.Errorf("report submissions = %d", report.Submissions)
	}

	var independentUSD float64
	for i := 0; i < jobs; i++ {
		rep, err := pipeline.Run(d, profile, pipeline.JobConfig{DataBytes: dataBytes})
		if err != nil {
			t.Fatalf("independent run %d: %v", i+1, err)
		}
		independentUSD += rep.TotalUSD()
	}
	if report.TotalUSD >= independentUSD {
		t.Errorf("shared session $%.4f not below independent $%.4f",
			report.TotalUSD, independentUSD)
	}
}

// TestStandingVMSharedAcrossSubmissions: a session-owned instance is
// used by every VM sort without per-job provisioning.
func TestStandingVMSharedAcrossSubmissions(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{StandingVMType: "bx2-4x16"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rig := sess.Rig()
	recs := bed.Generate(bed.GenConfig{Records: 900, Seed: 7})
	stage := func(p *des.Proc, r *calib.Rig) error {
		c := objectstore.NewClient(r.Store)
		for _, b := range []string{"data", "work"} {
			if err := c.CreateBucket(p, b); err != nil {
				return err
			}
		}
		return c.Put(p, "data", "in", payload.RealNoCopy(bed.Marshal(recs)))
	}
	for i := 0; i < 2; i++ {
		w := core.NewWorkflow("vmjob")
		if err := w.Add(&core.SortStage{
			Strategy: rig.VMStrategy(),
			Params:   rig.SortParams("data", "in", "work", "sorted/", 2),
		}); err != nil {
			t.Fatalf("Add: %v", err)
		}
		rep, err := sess.Submit(session.WorkflowJob(w, stage))
		if err != nil {
			t.Fatalf("Submit %d: %v", i+1, err)
		}
		sr, _ := rep.Stage("sort")
		if !strings.Contains(sr.Detail, "standing instance") {
			t.Errorf("run %d sort detail %q did not use the standing instance", i+1, sr.Detail)
		}
	}
	if got := len(rig.Prov.Instances()); got != 1 {
		t.Fatalf("instances provisioned = %d, want 1 (shared)", got)
	}
	if rig.Prov.Instances()[0].Stopped() {
		t.Fatal("standing instance stopped mid-session")
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !rig.Prov.Instances()[0].Stopped() {
		t.Error("Close left the standing instance running")
	}
}

// TestSessionLifecycleErrors: Submit after Close and double Close
// return the typed ErrSessionClosed; a job without Build fails.
func TestSessionLifecycleErrors(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := sess.Submit(session.Job{}); err == nil {
		t.Error("job without Build accepted")
	} else if errors.Is(err, session.ErrSessionClosed) {
		t.Errorf("no-Build error claims the session is closed: %v", err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := sess.Close(); !errors.Is(err, session.ErrSessionClosed) {
		t.Errorf("double Close error = %v, want ErrSessionClosed", err)
	}
	d, _ := pipeline.Load([]byte(cacheDoc))
	if _, err := sess.Submit(d.Job(pipeline.JobConfig{DataBytes: 1 << 20})); !errors.Is(err, session.ErrSessionClosed) {
		t.Errorf("Submit after Close error = %v, want ErrSessionClosed", err)
	}
}

// TestSubmitInAfterCloseFails: the in-simulation submission hook obeys
// the same lifecycle as Submit.
func TestSubmitInAfterCloseFails(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rig := sess.Rig()
	var subErr error
	rig.Sim.Spawn("late", func(p *des.Proc) {
		_, subErr = sess.SubmitIn(p, session.Job{Build: func(*calib.Rig) (*core.Workflow, error) {
			return core.NewWorkflow("late"), nil
		}})
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(subErr, session.ErrSessionClosed) {
		t.Errorf("SubmitIn after Close error = %v, want ErrSessionClosed", subErr)
	}
}

// TestSubmitInConcurrentRuns: two jobs submitted from concurrently
// running simulation processes overlap in virtual time on one rig, and
// their standing-cost shares partition the session's standing spend
// (sum equals the closing report's StandingUSD).
func TestSubmitInConcurrentRuns(t *testing.T) {
	leaks := destest.NoLeakedGoroutines(t)
	sess, err := session.Open(calib.Local(), session.Options{WarmCacheNodes: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rig := sess.Rig()
	recs := bed.Generate(bed.GenConfig{Records: 600, Seed: 11})
	var reps [2]*core.RunReport
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		for _, b := range []string{"data", "work"} {
			if err := c.CreateBucket(p, b); err != nil {
				t.Errorf("bucket: %v", err)
				return
			}
		}
		if err := c.Put(p, "data", "in", payload.RealNoCopy(bed.Marshal(recs))); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		wg := des.NewWaitGroup(rig.Sim)
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			p.Spawn(fmt.Sprintf("job%d", i), func(jp *des.Proc) {
				defer wg.Done()
				w := core.NewWorkflow(fmt.Sprintf("job%d", i))
				if err := w.Add(&core.SortStage{
					Strategy: rig.CacheStrategy(true),
					Params:   rig.SortParams("data", "in", "work", fmt.Sprintf("out%d/", i), 2),
				}); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				rep, err := sess.SubmitIn(jp, session.WorkflowJob(w, nil))
				if err != nil {
					t.Errorf("SubmitIn %d: %v", i, err)
					return
				}
				reps[i] = rep
			})
		}
		wg.Wait(p)
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	leaks()
	if reps[0] == nil || reps[1] == nil {
		t.Fatal("missing run reports")
	}
	if reps[0].Start != reps[1].Start {
		t.Errorf("runs did not start concurrently: %v vs %v", reps[0].Start, reps[1].Start)
	}
	report, err := sess.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if report.Submissions != 2 {
		t.Fatalf("submissions = %d, want 2", report.Submissions)
	}
	sum := reps[0].StandingUSD + reps[1].StandingUSD
	if d := sum - report.StandingUSD; d < -1e-9 || d > 1e-9 {
		t.Errorf("standing shares %.9f do not partition the session's %.9f", sum, report.StandingUSD)
	}
}

// TestSubmitInSharesOneBuiltWorkflow: one *core.Workflow submitted from
// two overlapping processes. A workflow is read-only once built, so both
// runs see every stage, in dependency order, over the same interval.
func TestSubmitInSharesOneBuiltWorkflow(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rig := sess.Rig()
	w := core.NewWorkflow("shared")
	sleep := func(name string, deps ...string) {
		if err := w.Add(&core.FuncStage{StageName: name, Fn: func(ctx *core.StageContext) error {
			ctx.Proc.Sleep(time.Second)
			return nil
		}}, deps...); err != nil {
			t.Fatal(err)
		}
	}
	sleep("join", "left", "right") // forward references: resolved at every run
	sleep("left", "src")
	sleep("right", "src")
	sleep("src")
	job := session.WorkflowJob(w, nil)
	var reps [2]*core.RunReport
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		var wg des.WaitGroup
		for i := range reps {
			wg.Add(1)
			p.Spawn(fmt.Sprintf("job%d", i), func(jp *des.Proc) {
				defer wg.Done()
				jp.Sleep(time.Duration(i) * 500 * time.Millisecond) // the second starts mid-stage of the first
				rep, err := sess.SubmitIn(jp, job)
				if err != nil {
					t.Errorf("SubmitIn %d: %v", i, err)
				}
				reps[i] = rep
			})
		}
		wg.Wait(p)
	})
	if err := rig.Sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("run %d: no report", i)
		}
		var names []string
		for _, s := range rep.Stages {
			names = append(names, s.Name)
		}
		if got := strings.Join(names, ","); got != "src,left,right,join" {
			t.Errorf("run %d stages: %s", i, got)
		}
		if rep.Latency() != 3*time.Second {
			t.Errorf("run %d latency %v, want 3s", i, rep.Latency())
		}
	}
	if reps[1].Start-reps[0].Start != 500*time.Millisecond {
		t.Errorf("runs started %v apart, want 500ms", reps[1].Start-reps[0].Start)
	}
}

// TestDescribeAfterSessionRun: a planner-backed sort renders
// "[exchange: auto]" before the run and "auto → <family>" after — the
// plan the stage committed to is visible in the DAG rendering.
func TestDescribeAfterSessionRun(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rig := sess.Rig()
	recs := bed.Generate(bed.GenConfig{Records: 1200, Seed: 8})
	w := core.NewWorkflow("describe")
	params := rig.SortParams("data", "in", "work", "sorted/", 0)
	if err := w.Add(&core.SortStage{Strategy: rig.AutoStrategy(autoplan.Objective{}), Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !strings.Contains(w.Describe(), "sort [exchange: auto]") {
		t.Fatalf("pre-run Describe:\n%s", w.Describe())
	}
	_, err = sess.Submit(session.WorkflowJob(w, func(p *des.Proc, r *calib.Rig) error {
		c := objectstore.NewClient(r.Store)
		for _, b := range []string{"data", "work"} {
			if err := c.CreateBucket(p, b); err != nil {
				return err
			}
		}
		return c.Put(p, "data", "in", payload.RealNoCopy(bed.Marshal(recs)))
	}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !strings.Contains(w.Describe(), "[exchange: auto → ") {
		t.Fatalf("post-run Describe does not show the committed plan:\n%s", w.Describe())
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// standingSession opens a session on calib.Local with a one-node warm
// cluster and a standing bx2-4x16, stages a small dataset, and returns a
// submit function: a VM sort that first waits until the virtual clock
// reads notBefore.
func standingSession(t *testing.T, plan *chaos.Plan) (*session.Session, func(n int, notBefore time.Duration) *core.RunReport) {
	t.Helper()
	sess, err := session.Open(calib.Local(), session.Options{
		WarmCacheNodes: 1, StandingVMType: "bx2-4x16", Chaos: plan,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rig := sess.Rig()
	recs := bed.Generate(bed.GenConfig{Records: 900, Seed: 7})
	stage := func(p *des.Proc, r *calib.Rig) error {
		c := objectstore.NewClient(r.Store)
		for _, b := range []string{"data", "work"} {
			if err := c.CreateBucket(p, b); err != nil {
				return err
			}
		}
		return c.Put(p, "data", "in", payload.RealNoCopy(bed.Marshal(recs)))
	}
	return sess, func(n int, notBefore time.Duration) *core.RunReport {
		t.Helper()
		w := core.NewWorkflow(fmt.Sprintf("vmjob%d", n))
		hold := &core.FuncStage{StageName: "hold", Fn: func(ctx *core.StageContext) error {
			if d := notBefore - ctx.Proc.Now(); d > 0 {
				ctx.Proc.Sleep(d)
			}
			return nil
		}}
		if err := w.Add(hold); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := w.Add(&core.SortStage{
			Strategy: rig.VMStrategy(),
			Params:   rig.SortParams("data", "in", "work", fmt.Sprintf("sorted%d/", n), 2),
		}, "hold"); err != nil {
			t.Fatalf("Add: %v", err)
		}
		rep, err := sess.Submit(session.WorkflowJob(w, stage))
		if err != nil {
			t.Fatalf("Submit %d: %v", n, err)
		}
		return rep
	}
}

// TestOpenStopsAtProvisioningEnd: Open runs the clock to the end of
// standing provisioning and no further, so a fault scheduled after it
// fires while a submission runs, not inside Open.
func TestOpenStopsAtProvisioningEnd(t *testing.T) {
	profile := calib.Local()
	sess, submit := standingSession(t, &chaos.Plan{Events: []chaos.Event{
		{At: 60 * time.Second, Kind: chaos.PreemptVM},
	}})
	var boot time.Duration
	for _, it := range profile.VMTypes {
		if it.Name == "bx2-4x16" {
			boot = it.BootTime
		}
	}
	if n := len(sess.Chaos().Fired()); n != 0 {
		t.Fatalf("%d chaos event(s) fired inside Open:\n%s", n, sess.Chaos())
	}
	rep := submit(1, 100*time.Second)
	if rep.Start >= 60*time.Second || rep.End <= 60*time.Second {
		t.Fatalf("first run spans [%v, %v], want the 60s event inside it", rep.Start, rep.End)
	}
	fired := sess.Chaos().Fired()
	if len(fired) != 1 || !strings.HasPrefix(fired[0].Outcome, "preempting on-demand bx2-4x16") {
		t.Fatalf("fired log after the first submission:\n%swant the standing instance preempted", sess.Chaos())
	}
	report, err := sess.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if want := profile.Cache.ProvisionTime + boot; report.Opened != want {
		t.Errorf("session opened at %v, want %v (cluster spin-up, then boot)", report.Opened, want)
	}
}

// TestStandingBillStopsWithTheResource holds the session's standing
// account to independent ground truth: the closing StandingUSD is what
// the price book charges for the standing cluster and instance as of
// Report.Closed, spelled out here from their billed lifetimes, and the
// runs' shares sum to it. With the standing instance reclaimed at 90s
// (preempted at 60s, 30s of notice) the instance's bill stops there
// while the runs go on, and a sort that finds it gone boots its own.
func TestStandingBillStopsWithTheResource(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *chaos.Plan
	}{
		{"healthy", nil},
		{"preempted", &chaos.Plan{Events: []chaos.Event{{At: 60 * time.Second, Kind: chaos.PreemptVM}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, submit := standingSession(t, tc.plan)
			rig := sess.Rig()
			runs := []*core.RunReport{submit(1, 100*time.Second), submit(2, 600*time.Second)}
			for i, rep := range runs {
				sr, _ := rep.Stage("sort")
				if standing := strings.Contains(sr.Detail, "standing instance"); standing != (tc.plan == nil) {
					t.Errorf("run %d sort on the standing instance = %v (%q)", i+1, standing, sr.Detail)
				}
				if sr.Restarts != 0 {
					t.Errorf("run %d counted %d restart(s); an instance gone before the sort is not a mid-sort reclaim", i+1, sr.Restarts)
				}
			}
			report, err := sess.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			if report.Closed != runs[1].End {
				t.Fatalf("closed at %v, want the last run's end %v", report.Closed, runs[1].End)
			}

			prices, cache := rig.Profile.Prices, rig.Profile.Cache
			inst := rig.Prov.Instances()[0]
			// The cluster bills from t=0, the instance from the end of
			// the cluster's spin-up, each to Closed or to its own stop.
			instBilled := report.Closed - cache.ProvisionTime
			if b := inst.BilledDuration(); b < instBilled {
				instBilled = b
			}
			if tc.plan != nil && instBilled != 90*time.Second-cache.ProvisionTime {
				t.Fatalf("reclaimed instance billed %v, want up to the reclaim at 90s", instBilled)
			}
			it := inst.Type()
			want := report.Closed.Hours()*cache.NodeHourlyUSD +
				instBilled.Hours()*(it.HourlyUSD+float64(it.MemoryGB)*prices.StorageGBMonth/(30*24))
			if d := math.Abs(report.StandingUSD - want); d > 1e-9*want {
				t.Errorf("closing StandingUSD $%.6f, price book x billed lifetimes $%.6f", report.StandingUSD, want)
			}
			asOf := prices.CacheCostAt(rig.CacheProv.Clusters(), report.Closed) + prices.VMCostAt([]*vm.Instance{inst}, report.Closed)
			if d := math.Abs(report.StandingUSD - asOf); d > 1e-9*asOf {
				t.Errorf("closing StandingUSD $%.9f, CacheCostAt + VMCostAt as of Closed $%.9f", report.StandingUSD, asOf)
			}
			shares := runs[0].StandingUSD + runs[1].StandingUSD
			if d := math.Abs(shares - report.StandingUSD); d > 1e-9*report.StandingUSD {
				t.Errorf("run shares sum to $%.9f, closing StandingUSD $%.9f", shares, report.StandingUSD)
			}
		})
	}
}
