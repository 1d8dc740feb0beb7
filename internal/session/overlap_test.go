package session_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
)

// batch is what a set of jobs started at one instant was billed, beside
// the truth: the platform's and the store's global meters over the
// batch, and the instances and clusters provisioned inside it, priced by
// the same price book.
type batch struct {
	runs          []*core.RunReport
	ops, truthOps int64
	inv, truthInv int64
	usd, truthUSD float64
}

// runBatch stages 600 records and submits one single-sort job per
// strategy through SubmitIn, all at the same instant.
func runBatch(t *testing.T, opts session.Options, strategies []func(*calib.Rig) core.ExchangeStrategy) batch {
	t.Helper()
	sess, err := session.Open(calib.Local(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rig := sess.Rig()
	prices := rig.Profile.Prices
	recs := bed.Generate(bed.GenConfig{Records: 600, Seed: 11})
	var b batch
	b.runs = make([]*core.RunReport, len(strategies))
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		for _, bkt := range []string{"data", "work"} {
			if err := c.CreateBucket(p, bkt); err != nil {
				t.Errorf("bucket: %v", err)
				return
			}
		}
		if err := c.Put(p, "data", "in", payload.RealNoCopy(bed.Marshal(recs))); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		fm, sm := rig.Platform.Meter(), rig.Store.Metrics()
		insts, clusters := len(rig.Prov.Instances()), len(rig.CacheProv.Clusters())
		var wg des.WaitGroup
		for i, strategy := range strategies {
			wg.Add(1)
			p.Spawn(fmt.Sprintf("job%d", i), func(jp *des.Proc) {
				defer wg.Done()
				w := core.NewWorkflow(fmt.Sprintf("job%d", i))
				if err := w.Add(&core.SortStage{
					Strategy: strategy(rig),
					Params:   rig.SortParams("data", "in", "work", fmt.Sprintf("out%d/", i), 2),
				}); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				rep, err := sess.SubmitIn(jp, session.WorkflowJob(w, nil))
				if err != nil {
					t.Errorf("SubmitIn %d: %v", i, err)
				}
				b.runs[i] = rep
			})
		}
		wg.Wait(p)
		dfm, dsm := rig.Platform.Meter().Sub(fm), rig.Store.Metrics().Sub(sm)
		b.truthOps, b.truthInv = dsm.TotalOps(), dfm.Invocations
		b.truthUSD = billing.StageCost{
			Functions: prices.FunctionsCost(dfm),
			Storage:   prices.StorageCost(dsm),
			VM:        prices.VMCost(rig.Prov.Instances()[insts:]),
			Cache:     prices.CacheCost(rig.CacheProv.Clusters()[clusters:]),
		}.Total()
	})
	if err := rig.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, rep := range b.runs {
		if rep == nil {
			t.Fatalf("job %d: no report", i)
		}
		for _, s := range rep.Stages {
			b.ops += s.Store.TotalOps()
			b.inv += s.Faas.Invocations
		}
		b.usd += rep.MeteredUSD()
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return b
}

// check holds the batch's summed bill to the truth.
func (b batch) check(t *testing.T) {
	t.Helper()
	if b.ops != b.truthOps {
		t.Errorf("summed store ops %d, global meters %d", b.ops, b.truthOps)
	}
	if b.inv != b.truthInv {
		t.Errorf("summed invocations %d, global meters %d", b.inv, b.truthInv)
	}
	if d := math.Abs(b.usd - b.truthUSD); d > 1e-12*b.truthUSD {
		t.Errorf("summed run bills $%.10f, global meters x price book $%.10f", b.usd, b.truthUSD)
	}
}

// TestOverlappingJobsBillWhatTheyUsed: N object-storage sorts started at
// one instant are billed, summed, exactly what the platform and the
// store metered while they ran, and each is billed what it would be
// billed alone. Then a store sort, a cache sort on the session's
// standing cluster and a VM sort overlap, and the same holds.
func TestOverlappingJobsBillWhatTheyUsed(t *testing.T) {
	store := func(*calib.Rig) core.ExchangeStrategy { return core.ObjectStorageExchange{} }
	var lone core.StageReport
	for _, n := range []int{1, 2, 4, 8} {
		strategies := make([]func(*calib.Rig) core.ExchangeStrategy, n)
		for i := range strategies {
			strategies[i] = store
		}
		b := runBatch(t, session.Options{}, strategies)
		t.Logf("N=%d: store ops %d / %d, invocations %d / %d, USD %.7f / %.7f",
			n, b.ops, b.truthOps, b.inv, b.truthInv, b.usd, b.truthUSD)
		b.check(t)
		if n == 1 {
			lone = b.runs[0].Stages[0]
		}
		for i, rep := range b.runs {
			s := rep.Stages[0]
			if s.Store.TotalOps() != lone.Store.TotalOps() || s.Faas.Invocations != lone.Faas.Invocations {
				t.Errorf("N=%d job %d billed %d store ops and %d invocations, alone %d and %d",
					n, i, s.Store.TotalOps(), s.Faas.Invocations, lone.Store.TotalOps(), lone.Faas.Invocations)
			}
		}
	}

	mixed := runBatch(t, session.Options{WarmCacheNodes: 1}, []func(*calib.Rig) core.ExchangeStrategy{
		store,
		func(rig *calib.Rig) core.ExchangeStrategy { return rig.CacheStrategy(false) },
		func(rig *calib.Rig) core.ExchangeStrategy { return rig.VMStrategy() },
	})
	t.Logf("mixed: store ops %d / %d, invocations %d / %d, USD %.7f / %.7f",
		mixed.ops, mixed.truthOps, mixed.inv, mixed.truthInv, mixed.usd, mixed.truthUSD)
	mixed.check(t)
	if vmCost := mixed.runs[2].Stages[0].Cost.VM; vmCost <= 0 {
		t.Errorf("the VM sort was billed $%g for its instance", vmCost)
	}
	for i, rep := range mixed.runs[:2] {
		if c := rep.Stages[0].Cost; c.VM != 0 || c.Cache != 0 {
			t.Errorf("mixed job %d billed vm $%g cache $%g; it provisioned nothing", i, c.VM, c.Cache)
		}
	}
}

// TestLateChargeBillsNoLaterJob: one process submits two jobs back to
// back, and each job's one stage runs on that process. The first stage
// spawns a child that puts an object only once the second stage is open.
// That put is metered but billed to neither job: it is late for the first
// stage's scope, which has ended, and the second stage's scope is a new
// one that the child is not in, though the same process leads it. Each
// job is billed its own put alone.
func TestLateChargeBillsNoLaterJob(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rig := sess.Rig()
	c := objectstore.NewClient(rig.Store)
	put := func(p *des.Proc, key string) {
		if err := c.Put(p, "b", key, payload.Sized(1000)); err != nil {
			t.Errorf("put %s: %v", key, err)
		}
	}
	job := func(name string, fn func(*core.StageContext) error) session.Job {
		w := core.NewWorkflow(name)
		if err := w.Add(&core.FuncStage{StageName: "work", Fn: fn}); err != nil {
			t.Fatal(err)
		}
		return session.WorkflowJob(w, nil)
	}
	var (
		late     *des.Proc
		released bool
		lateDone des.WaitGroup
	)
	lateDone.Add(1)
	jobs := []session.Job{
		job("first", func(ctx *core.StageContext) error {
			late = ctx.Proc.Spawn("late", func(l *des.Proc) {
				defer lateDone.Done()
				for !released {
					l.Park()
				}
				put(l, "late")
			})
			put(ctx.Proc, "first")
			return nil
		}),
		job("second", func(ctx *core.StageContext) error {
			released = true
			late.Wake()
			put(ctx.Proc, "second")
			lateDone.Wait(ctx.Proc)
			return nil
		}),
	}
	var reps []*core.RunReport
	var metered int64
	rig.Sim.Spawn("submitter", func(p *des.Proc) {
		if err := c.CreateBucket(p, "b"); err != nil {
			t.Errorf("bucket: %v", err)
			return
		}
		before := rig.Store.Metrics().ClassAOps
		for _, j := range jobs {
			rep, err := sess.SubmitIn(p, j)
			if err != nil {
				t.Errorf("SubmitIn: %v", err)
				return
			}
			reps = append(reps, rep)
		}
		metered = rig.Store.Metrics().ClassAOps - before
	})
	if err := rig.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(reps) != 2 {
		t.Fatalf("%d reports, want 2", len(reps))
	}
	if metered != 3 {
		t.Errorf("the store metered %d puts, want 3 (each job's and the late one)", metered)
	}
	for i, rep := range reps {
		if got := rep.Stages[0].Store.ClassAOps; got != 1 {
			t.Errorf("job %d billed %d class-A requests, want 1: its own put", i+1, got)
		}
	}
}
