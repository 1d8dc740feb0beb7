package gateway_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/gateway"
	"github.com/faaspipe/faaspipe/internal/session"
)

// BenchmarkGatewayAdmission measures the admission stack end to end —
// authenticate, rate-check, enqueue, DRR dispatch, run, complete —
// under 100-tenant contention, reporting wall-clock admissions/sec.
// The jobs are near-empty FuncStages so the number tracks gateway
// overhead, not workload.
func BenchmarkGatewayAdmission(b *testing.B) {
	const tenants = 100
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	toks := make(gateway.StaticTokens, tenants)
	creds := make([]gateway.Credential, tenants)
	for i := 0; i < tenants; i++ {
		tok := fmt.Sprintf("tok-%03d", i)
		toks[tok] = fmt.Sprintf("t%03d", i)
		creds[i] = gateway.Credential{Token: tok}
	}
	g := gateway.New(sess, toks, gateway.Options{MaxConcurrent: 16})
	for i := 0; i < tenants; i++ {
		if err := g.RegisterTenant(fmt.Sprintf("t%03d", i), gateway.TenantConfig{
			Weight:        1 + i%4,
			MaxConcurrent: 4,
			MaxQueued:     1 << 20,
		}); err != nil {
			b.Fatal(err)
		}
	}
	rig := sess.Rig()
	b.ResetTimer()
	rig.Sim.Spawn("bench", func(p *des.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := g.Submit(p, creds[i%tenants], sleepJob("j", time.Microsecond)); err != nil {
				b.Errorf("submit %d: %v", i, err)
				return
			}
		}
		g.Drain(p)
	})
	if err := rig.Sim.Run(); err != nil {
		b.Fatalf("sim: %v", err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "admissions/s")
	if _, err := g.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
}

// BenchmarkGatewayDispatch measures fair-share dispatch under a deep
// backlog with 1k active tenants, at 0 and at 100k registered-but-idle
// tenants. Dispatch cost must be a function of runnable work, not of
// the registration table: the two sub-benchmarks' ns/op must match
// within noise, which is the O(active) acceptance criterion for the
// 100k-tenant roadmap scale.
func BenchmarkGatewayDispatch(b *testing.B) {
	const active = 1000
	for _, idle := range []int{0, 100_000} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			sess, err := session.Open(calib.Local(), session.Options{})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			toks := make(gateway.StaticTokens, active)
			creds := make([]gateway.Credential, active)
			for i := 0; i < active; i++ {
				tok := fmt.Sprintf("tok-%04d", i)
				toks[tok] = fmt.Sprintf("t%04d", i)
				creds[i] = gateway.Credential{Token: tok}
			}
			g := gateway.New(sess, toks, gateway.Options{MaxConcurrent: 64})
			for i := 0; i < active; i++ {
				if err := g.RegisterTenant(fmt.Sprintf("t%04d", i), gateway.TenantConfig{
					Weight:        1 + i%4,
					MaxConcurrent: 2,
					MaxQueued:     1 << 20,
				}); err != nil {
					b.Fatal(err)
				}
			}
			// The idle population: registered, configured (each with a
			// queue-wait deadline of its own, so any per-registrant or
			// per-wait shed scan would show up), but never submitting.
			for i := 0; i < idle; i++ {
				if err := g.RegisterTenant(fmt.Sprintf("idle%06d", i), gateway.TenantConfig{
					MaxQueueWait: time.Minute + time.Duration(i)*time.Millisecond,
				}); err != nil {
					b.Fatal(err)
				}
			}
			rig := sess.Rig()
			b.ResetTimer()
			rig.Sim.Spawn("bench", func(p *des.Proc) {
				for i := 0; i < b.N; i++ {
					if _, err := g.Submit(p, creds[i%active], sleepJob("j", 10*time.Microsecond)); err != nil {
						b.Errorf("submit %d: %v", i, err)
						return
					}
				}
				g.Drain(p)
			})
			if err := rig.Sim.Run(); err != nil {
				b.Fatalf("sim: %v", err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatches/s")
			if _, err := g.Close(); err != nil {
				b.Fatalf("Close: %v", err)
			}
		})
	}
}

// gatewayJobs pushes n sleep-only single-stage jobs from 100 HMAC
// tenants through Submit and Drain at MaxConcurrent 64, arriving just
// under capacity so nothing queues for long, and returns the mallocs
// and bytes the n jobs cost between the first Submit and the end of the
// drain (building each job included, opening the session and
// registering the tenants not). It is the per-job control plane and
// nothing else: auth, admission, DRR, a gateway process, the session,
// one Executor.Run with one stage process, the report.
func gatewayJobs(tb testing.TB, n int) (mallocs, bytes uint64) {
	const tenants = 100
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	auth := gateway.HMACAuth{Secret: []byte("job-budget")}
	g := gateway.New(sess, auth, gateway.Options{MaxConcurrent: 64})
	creds := make([]gateway.Credential, tenants)
	for i := range creds {
		id := fmt.Sprintf("t-%05d", i)
		creds[i] = gateway.Credential{TenantID: id, MAC: auth.Tag(id)}
		if err := g.RegisterTenant(id, gateway.TenantConfig{}); err != nil {
			tb.Fatal(err)
		}
	}
	tickets := make([]*gateway.Ticket, n)
	rig := sess.Rig()
	var before, after runtime.MemStats
	rig.Sim.Spawn("submitter", func(p *des.Proc) {
		runtime.ReadMemStats(&before)
		for i := range tickets {
			tk, err := g.Submit(p, creds[i%tenants], sleepJob("sleep", 500*time.Microsecond))
			if err != nil {
				tb.Errorf("submit %d: %v", i, err)
				return
			}
			tickets[i] = tk
			p.Sleep(10 * time.Microsecond)
		}
		g.Drain(p)
		runtime.ReadMemStats(&after)
	})
	if err := rig.Sim.Run(); err != nil {
		tb.Fatalf("sim: %v", err)
	}
	for i, tk := range tickets {
		if rep, err := tk.Report(); !tk.Done() || err != nil || rep == nil || len(rep.Stages) != 1 {
			tb.Fatalf("ticket %d: done %v, report %v, err %v", i, tk.Done(), rep, err)
		}
	}
	if _, err := g.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestGatewayJobAllocBudget holds the per-job diet with a budget: a job
// that only sleeps cost 52 mallocs and 2.9 KB before the diet, 24 and
// 1.2 KB after it, 16 and 0.9 KB since its stage runs on the job's own
// process, 15.2 since a tenant's queue keeps its backing array across
// drains, and 11.2 and 0.8 KB since its process is the one allocation a
// Spawn makes and is named only when a report reads it, and its ticket
// (96 B, not 144) holds no job: the job waits beside it in the queues,
// and the process body is one function bound per gateway; 8.2 and 0.75
// KB since the run holds its first stage's context and the workflow
// holds its first node (the workflow, its node slice and its node were
// three allocations, the context a fourth). A new map,
// Sprintf or report line on the per-job path shows here before it shows
// in a profile.
func TestGatewayJobAllocBudget(t *testing.T) {
	const jobs = 2000
	mallocs, bytes := gatewayJobs(t, jobs)
	perJob, bytesPerJob := float64(mallocs)/jobs, float64(bytes)/jobs
	t.Logf("%.1f mallocs, %.0f B per job", perJob, bytesPerJob)
	if perJob > 9 {
		t.Errorf("%.1f mallocs per sleep-only job, budget 9", perJob)
	}
	if bytesPerJob > 800 {
		t.Errorf("%.0f B allocated per sleep-only job, budget 800", bytesPerJob)
	}
}

// BenchmarkGatewayJob is TestGatewayJobAllocBudget's shape for
// -benchmem: one op is one sleep-only job end to end.
func BenchmarkGatewayJob(b *testing.B) {
	b.ReportAllocs()
	gatewayJobs(b, b.N)
}
