package gateway_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/gateway"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
)

// sleepJob is the minimal tenant workload: occupy the rig for d.
func sleepJob(name string, d time.Duration) session.Job {
	w := core.NewWorkflow(name)
	if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
		ctx.Proc.Sleep(d)
		return nil
	}}); err != nil {
		panic(err)
	}
	return session.WorkflowJob(w, nil)
}

// putJob occupies the rig for d, then publishes data under key in the
// given bucket — the serving-path workload.
func putJob(name, bucket, key string, d time.Duration, data []byte) session.Job {
	w := core.NewWorkflow(name)
	if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
		ctx.Proc.Sleep(d)
		c := objectstore.NewClient(ctx.Exec.Store)
		return c.Put(ctx.Proc, bucket, key, payload.RealNoCopy(data))
	}}); err != nil {
		panic(err)
	}
	return session.WorkflowJob(w, nil)
}

// openGateway builds a Local-profile session fronted by a gateway.
func openGateway(t *testing.T, auth gateway.Authenticator, opts gateway.Options, sopts session.Options) *gateway.Gateway {
	t.Helper()
	sess, err := session.Open(calib.Local(), sopts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return gateway.New(sess, auth, opts)
}

// drive runs fn as the submitting process and drains the simulation.
func drive(t *testing.T, g *gateway.Gateway, fn func(p *des.Proc)) {
	t.Helper()
	g.Session().Rig().Sim.Spawn("driver", fn)
	if err := g.Session().Rig().Sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestAuthAndRegistration: the admission stack's identity leg — bad
// credentials bounce with ErrUnauthenticated, authenticated-but-
// unregistered identities with ErrUnknownTenant, and both static and
// HMAC credentials reach their tenant through a Chain.
func TestAuthAndRegistration(t *testing.T) {
	hm := gateway.HMACAuth{Secret: []byte("s3cret")}
	auth := gateway.Chain{gateway.StaticTokens{"tok-a": "alice"}, hm}
	g := openGateway(t, auth, gateway.Options{}, session.Options{})
	for _, id := range []string{"alice", "bob"} {
		if err := g.RegisterTenant(id, gateway.TenantConfig{}); err != nil {
			t.Fatalf("RegisterTenant(%s): %v", id, err)
		}
	}
	if err := g.RegisterTenant("alice", gateway.TenantConfig{}); err == nil {
		t.Error("duplicate registration accepted")
	}
	drive(t, g, func(p *des.Proc) {
		if _, err := g.Submit(p, gateway.Credential{Token: "wrong"}, sleepJob("j", time.Millisecond)); !errors.Is(err, gateway.ErrUnauthenticated) {
			t.Errorf("bad token error = %v, want ErrUnauthenticated", err)
		}
		if _, err := g.Submit(p, gateway.Credential{TenantID: "bob", MAC: "feedface"}, sleepJob("j", time.Millisecond)); !errors.Is(err, gateway.ErrUnauthenticated) {
			t.Errorf("bad MAC error = %v, want ErrUnauthenticated", err)
		}
		if _, err := g.Submit(p, gateway.Credential{TenantID: "mallory", MAC: hm.Tag("mallory")}, sleepJob("j", time.Millisecond)); !errors.Is(err, gateway.ErrUnknownTenant) {
			t.Errorf("unregistered tenant error = %v, want ErrUnknownTenant", err)
		}
		tka, err := g.Submit(p, gateway.Credential{Token: "tok-a"}, sleepJob("a", time.Millisecond))
		if err != nil {
			t.Fatalf("static-token submit: %v", err)
		}
		tkb, err := g.Submit(p, gateway.Credential{TenantID: "bob", MAC: hm.Tag("bob")}, sleepJob("b", time.Millisecond))
		if err != nil {
			t.Fatalf("HMAC submit: %v", err)
		}
		if _, err := tka.Wait(p); err != nil {
			t.Errorf("alice job: %v", err)
		}
		if _, err := tkb.Wait(p); err != nil {
			t.Errorf("bob job: %v", err)
		}
		if tka.Tenant != "alice" || tkb.Tenant != "bob" {
			t.Errorf("tickets attributed to %q/%q", tka.Tenant, tkb.Tenant)
		}
	})
	rep, err := g.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rep.Tenants[0].Completed != 1 || rep.Tenants[1].Completed != 1 {
		t.Errorf("completions = %d/%d, want 1/1", rep.Tenants[0].Completed, rep.Tenants[1].Completed)
	}
}

// TestRateLimitRejectsAndRecovers: an over-rate tenant is rejected
// without blocking, and readmitted once its bucket refills; a
// bucketless tenant submitting alongside is never rejected.
func TestRateLimitRejectsAndRecovers(t *testing.T) {
	g := openGateway(t, gateway.StaticTokens{"tok-a": "limited", "tok-b": "free"}, gateway.Options{}, session.Options{})
	if err := g.RegisterTenant("limited", gateway.TenantConfig{RatePerSec: 1, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterTenant("free", gateway.TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	la, fr := gateway.Credential{Token: "tok-a"}, gateway.Credential{Token: "tok-b"}
	drive(t, g, func(p *des.Proc) {
		if _, err := g.Submit(p, la, sleepJob("j1", time.Millisecond)); err != nil {
			t.Fatalf("first submit: %v", err)
		}
		before := p.Now()
		if _, err := g.Submit(p, la, sleepJob("j2", time.Millisecond)); !errors.Is(err, gateway.ErrRateLimited) {
			t.Errorf("burst overrun error = %v, want ErrRateLimited", err)
		}
		if p.Now() != before {
			t.Error("rejection consumed virtual time — Submit must not block")
		}
		if _, err := g.Submit(p, fr, sleepJob("f1", time.Millisecond)); err != nil {
			t.Errorf("unlimited tenant rejected alongside: %v", err)
		}
		p.Sleep(time.Second)
		if _, err := g.Submit(p, la, sleepJob("j3", time.Millisecond)); err != nil {
			t.Errorf("post-refill submit: %v", err)
		}
		g.Drain(p)
	})
	rep, err := g.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rep.Tenants[0].RejectedRate != 1 || rep.Tenants[0].Admitted != 2 {
		t.Errorf("limited tenant funnel = %+v", rep.Tenants[0])
	}
	if rep.Tenants[1].RejectedRate != 0 {
		t.Errorf("unlimited tenant saw %d rate rejections", rep.Tenants[1].RejectedRate)
	}
}

// TestQueueBound: pending depth beyond MaxQueued rejects with
// ErrQueueFull instead of growing the backlog.
func TestQueueBound(t *testing.T) {
	g := openGateway(t, gateway.StaticTokens{"tok": "a"},
		gateway.Options{MaxConcurrent: 1}, session.Options{})
	if err := g.RegisterTenant("a", gateway.TenantConfig{MaxConcurrent: 1, MaxQueued: 2}); err != nil {
		t.Fatal(err)
	}
	cred := gateway.Credential{Token: "tok"}
	drive(t, g, func(p *des.Proc) {
		for i := 0; i < 3; i++ { // 1 launches, 2 queue
			if _, err := g.Submit(p, cred, sleepJob(fmt.Sprintf("j%d", i), time.Second)); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if _, err := g.Submit(p, cred, sleepJob("overflow", time.Second)); !errors.Is(err, gateway.ErrQueueFull) {
			t.Errorf("overflow error = %v, want ErrQueueFull", err)
		}
		g.Drain(p)
	})
	if _, err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestQueueDeadlineSheds: a ticket queued beyond its tenant's
// MaxQueueWait is shed at the next dispatch with ErrDeadlineExceeded
// — counted in the Shed ledger, not Completed/Failed — while fresher
// tickets and deadline-free tenants launch untouched.
func TestQueueDeadlineSheds(t *testing.T) {
	g := openGateway(t, gateway.StaticTokens{"tok-a": "a", "tok-b": "b"},
		gateway.Options{MaxConcurrent: 1}, session.Options{})
	if err := g.RegisterTenant("a", gateway.TenantConfig{MaxQueued: 10, MaxQueueWait: 500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterTenant("b", gateway.TenantConfig{MaxQueued: 10}); err != nil {
		t.Fatal(err)
	}
	credA, credB := gateway.Credential{Token: "tok-a"}, gateway.Credential{Token: "tok-b"}
	drive(t, g, func(p *des.Proc) {
		// j0 occupies the single slot for 1s; j1, j2 and b's job queue
		// behind it.
		if _, err := g.Submit(p, credA, sleepJob("j0", time.Second)); err != nil {
			t.Fatalf("submit j0: %v", err)
		}
		var stale []*gateway.Ticket
		for _, name := range []string{"j1", "j2"} {
			tk, err := g.Submit(p, credA, sleepJob(name, time.Millisecond))
			if err != nil {
				t.Fatalf("submit %s: %v", name, err)
			}
			stale = append(stale, tk)
		}
		patient, err := g.Submit(p, credB, sleepJob("patient", time.Millisecond))
		if err != nil {
			t.Fatalf("submit patient: %v", err)
		}
		// 600ms in, j1/j2 have outwaited the 500ms deadline. The next
		// dispatch — triggered by this fresh submission — sheds them;
		// the fresh ticket itself is 400ms from j0's completion and
		// survives to launch.
		p.Sleep(600 * time.Millisecond)
		fresh, err := g.Submit(p, credA, sleepJob("fresh", time.Millisecond))
		if err != nil {
			t.Fatalf("submit fresh: %v", err)
		}
		for i, tk := range stale {
			rep, err := tk.Wait(p)
			if !errors.Is(err, gateway.ErrDeadlineExceeded) {
				t.Errorf("stale ticket %d error = %v, want ErrDeadlineExceeded", i, err)
			}
			if rep != nil {
				t.Errorf("stale ticket %d has a run report", i)
			}
			if tk.Finished != 600*time.Millisecond {
				t.Errorf("stale ticket %d shed at %s, want 600ms (the triggering dispatch)", i, tk.Finished)
			}
		}
		if _, err := fresh.Wait(p); err != nil {
			t.Errorf("fresh ticket: %v", err)
		}
		if _, err := patient.Wait(p); err != nil {
			t.Errorf("deadline-free tenant's ticket: %v", err)
		}
		g.Drain(p)
	})
	rep, err := g.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	a, b := rep.Tenants[0], rep.Tenants[1]
	if a.Shed != 2 || a.Completed != 2 || a.Failed != 0 {
		t.Errorf("tenant a ledger = shed %d / done %d / failed %d, want 2/2/0", a.Shed, a.Completed, a.Failed)
	}
	if b.Shed != 0 || b.Completed != 1 {
		t.Errorf("deadline-free tenant ledger = shed %d / done %d, want 0/1", b.Shed, b.Completed)
	}
	if !strings.Contains(rep.String(), "shed") {
		t.Errorf("report rendering missing shed column:\n%s", rep)
	}
}

// TestShedOrderAcrossWaitClasses: tickets of tenants with different
// MaxQueueWait values that fall due at the same instant are shed in
// (deadline, admission) order across the classes, each one as its
// tenant's oldest ticket, at the dispatch that finds them overdue. A
// deadline tie between classes goes to the longer wait: it was
// admitted earlier. Every ticket has its own waiter, so the log is the
// order the gateway finished them in, not the order they were waited on.
func TestShedOrderAcrossWaitClasses(t *testing.T) {
	g := openGateway(t, gateway.StaticTokens{"f": "fast", "a": "slowA", "b": "slowB", "n": "free"},
		gateway.Options{MaxConcurrent: 1}, session.Options{})
	for _, r := range []struct {
		id   string
		wait time.Duration
	}{{"fast", 300 * time.Millisecond}, {"slowA", 500 * time.Millisecond}, {"slowB", 500 * time.Millisecond}, {"free", 0}} {
		if err := g.RegisterTenant(r.id, gateway.TenantConfig{MaxQueued: 10, MaxQueueWait: r.wait}); err != nil {
			t.Fatal(err)
		}
	}
	sim := g.Session().Rig().Sim
	var log []string
	tickets := map[string]*gateway.Ticket{}
	submitted := map[string]int{}
	drive(t, g, func(p *des.Proc) {
		// Each step: sleep until at, then submit one job per token.
		for _, step := range []struct {
			at   time.Duration
			toks string
		}{
			{0, "nab"},  // free/0 takes the one slot for 1s; slowA/0, slowB/0 fall due at 500ms
			{100, "a"},  // slowA/1 falls due at 600ms
			{200, "f"},  // fast/0 falls due at 500ms, tied with slowA/0 and slowB/0
			{300, "bf"}, // slowB/1 at 800ms; fast/1 at 600ms, tied with slowA/1
			{500, "f"},  // fast/2 at 800ms, tied with slowB/1; nothing is overdue yet at 500ms
			{600, "n"},  // free/1 queues; this dispatch sheds the 500ms ties
			{900, "a"},  // slowA/2 falls due at 1.4s; this dispatch sheds the 600ms and 800ms ties
		} {
			p.Sleep(step.at*time.Millisecond - p.Now())
			for _, tok := range step.toks {
				d := 10 * time.Millisecond
				if p.Now() == 0 && tok == 'n' {
					d = time.Second
				}
				tk, err := g.Submit(p, gateway.Credential{Token: string(tok)}, sleepJob("j", d))
				if err != nil {
					t.Fatalf("submit %c at %s: %v", tok, p.Now(), err)
				}
				name := fmt.Sprintf("%s/%d", tk.Tenant, submitted[tk.Tenant])
				submitted[tk.Tenant]++
				tickets[name] = tk
				sim.Spawn("wait/"+name, func(w *des.Proc) {
					tk.Wait(w)
					log = append(log, fmt.Sprintf("%s@%s", name, w.Now()))
				})
			}
		}
		g.Drain(p)
	})
	want := []string{
		"slowA/0@600ms", "slowB/0@600ms", "fast/0@600ms",
		"slowA/1@900ms", "fast/1@900ms", "slowB/1@900ms", "fast/2@900ms",
		"free/0@1s", "slowA/2@1.01s", "free/1@1.02s",
	}
	if got := strings.Join(log, " "); got != strings.Join(want, " ") {
		t.Errorf("wake order:\n got %s\nwant %s", got, strings.Join(want, " "))
	}
	for _, c := range []struct {
		name     string
		finished time.Duration
		err      string
	}{
		{"slowA/0", 600 * time.Millisecond, `gateway: tenant "slowA": queued 600ms beyond MaxQueueWait 500ms: gateway: queue deadline exceeded`},
		{"slowB/0", 600 * time.Millisecond, `gateway: tenant "slowB": queued 600ms beyond MaxQueueWait 500ms: gateway: queue deadline exceeded`},
		{"fast/0", 600 * time.Millisecond, `gateway: tenant "fast": queued 400ms beyond MaxQueueWait 300ms: gateway: queue deadline exceeded`},
		{"slowA/1", 900 * time.Millisecond, `gateway: tenant "slowA": queued 800ms beyond MaxQueueWait 500ms: gateway: queue deadline exceeded`},
		{"fast/1", 900 * time.Millisecond, `gateway: tenant "fast": queued 600ms beyond MaxQueueWait 300ms: gateway: queue deadline exceeded`},
		{"slowB/1", 900 * time.Millisecond, `gateway: tenant "slowB": queued 600ms beyond MaxQueueWait 500ms: gateway: queue deadline exceeded`},
		{"fast/2", 900 * time.Millisecond, `gateway: tenant "fast": queued 400ms beyond MaxQueueWait 300ms: gateway: queue deadline exceeded`},
		{"free/0", time.Second, ""},
		{"slowA/2", 1010 * time.Millisecond, ""},
		{"free/1", 1020 * time.Millisecond, ""},
	} {
		tk := tickets[c.name]
		_, err := tk.Report()
		got := ""
		if err != nil {
			got = err.Error()
			if !errors.Is(err, gateway.ErrDeadlineExceeded) {
				t.Errorf("%s: error %v is not ErrDeadlineExceeded", c.name, err)
			}
		}
		if tk.Finished != c.finished || got != c.err {
			t.Errorf("%s: finished %s, err %q; want %s, %q", c.name, tk.Finished, got, c.finished, c.err)
		}
	}
	rep, err := g.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	shed := map[string]int64{}
	for _, ts := range rep.Tenants {
		shed[ts.ID] = ts.Shed
	}
	if want := map[string]int64{"fast": 3, "slowA": 2, "slowB": 2, "free": 0}; fmt.Sprint(shed) != fmt.Sprint(want) {
		t.Errorf("shed counts %v, want %v", shed, want)
	}
}

// TestWeightedFairShare: with both tenants saturating a serial
// gateway, launch order follows DRR weights — a weight-3 tenant gets
// three slots for the weight-1 tenant's one — and nobody starves.
func TestWeightedFairShare(t *testing.T) {
	g := openGateway(t, gateway.StaticTokens{"tok-g": "gold", "tok-b": "bronze"},
		gateway.Options{MaxConcurrent: 1}, session.Options{})
	if err := g.RegisterTenant("gold", gateway.TenantConfig{Weight: 3, MaxConcurrent: 4, MaxQueued: 100}); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterTenant("bronze", gateway.TenantConfig{Weight: 1, MaxConcurrent: 4, MaxQueued: 100}); err != nil {
		t.Fatal(err)
	}
	const each = 20
	var tickets []*gateway.Ticket
	drive(t, g, func(p *des.Proc) {
		for i := 0; i < each; i++ {
			for _, tok := range []string{"tok-g", "tok-b"} {
				tk, err := g.Submit(p, gateway.Credential{Token: tok}, sleepJob(fmt.Sprintf("%s%d", tok, i), 10*time.Millisecond))
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				tickets = append(tickets, tk)
			}
		}
		g.Drain(p)
	})
	sort.Slice(tickets, func(i, j int) bool { return tickets[i].Started < tickets[j].Started })
	gold := 0
	const window = 24 // six full rounds while both queues are backlogged
	for _, tk := range tickets[:window] {
		if tk.Tenant == "gold" {
			gold++
		}
	}
	if gold < 17 || gold > 19 {
		t.Errorf("gold launched %d of first %d, want ~18 (3:1 weight share)", gold, window)
	}
	rep, err := g.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rep.Starved != 0 {
		t.Errorf("starved tenant-rounds = %d, want 0", rep.Starved)
	}
	if rep.Tenants[0].Completed != each || rep.Tenants[1].Completed != each {
		t.Errorf("completions = %d/%d, want %d each", rep.Tenants[0].Completed, rep.Tenants[1].Completed, each)
	}
}

// TestPerTenantConcurrencyCap: a tenant never exceeds its own
// MaxConcurrent even with free gateway slots; the spare capacity goes
// to other tenants.
func TestPerTenantConcurrencyCap(t *testing.T) {
	g := openGateway(t, gateway.StaticTokens{"tok-a": "a", "tok-b": "b"},
		gateway.Options{MaxConcurrent: 8}, session.Options{})
	if err := g.RegisterTenant("a", gateway.TenantConfig{MaxConcurrent: 2, MaxQueued: 100}); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterTenant("b", gateway.TenantConfig{MaxConcurrent: 4, MaxQueued: 100}); err != nil {
		t.Fatal(err)
	}
	var aTickets, bTickets []*gateway.Ticket
	drive(t, g, func(p *des.Proc) {
		for i := 0; i < 6; i++ {
			tk, err := g.Submit(p, gateway.Credential{Token: "tok-a"}, sleepJob(fmt.Sprintf("a%d", i), 10*time.Millisecond))
			if err != nil {
				t.Fatalf("submit a%d: %v", i, err)
			}
			aTickets = append(aTickets, tk)
			tk, err = g.Submit(p, gateway.Credential{Token: "tok-b"}, sleepJob(fmt.Sprintf("b%d", i), 10*time.Millisecond))
			if err != nil {
				t.Fatalf("submit b%d: %v", i, err)
			}
			bTickets = append(bTickets, tk)
		}
		g.Drain(p)
	})
	overlap := func(tks []*gateway.Ticket) int {
		max := 0
		for _, a := range tks {
			n := 0
			for _, b := range tks {
				if b.Started <= a.Started && a.Started < b.Finished {
					n++
				}
			}
			if n > max {
				max = n
			}
		}
		return max
	}
	if got := overlap(aTickets); got > 2 {
		t.Errorf("tenant a ran %d jobs concurrently, cap 2", got)
	}
	if got := overlap(bTickets); got != 4 {
		t.Errorf("tenant b peak concurrency = %d, want its full cap 4", got)
	}
	// Jobs launched at one instant wait for their processes together;
	// each ticket still reports its own job.
	for i := 0; i < 6; i++ {
		for name, tk := range map[string]*gateway.Ticket{fmt.Sprintf("a%d", i): aTickets[i], fmt.Sprintf("b%d", i): bTickets[i]} {
			if rep, _ := tk.Report(); rep == nil || rep.Workflow != name {
				t.Errorf("ticket of job %s reports %+v", name, rep)
			}
		}
	}
	if _, err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCostAttributionReconciles: per-tenant ledgers (metered + standing
// share) partition the fronted session's closing bill exactly.
func TestCostAttributionReconciles(t *testing.T) {
	g := openGateway(t, gateway.StaticTokens{"tok-a": "a", "tok-b": "b", "tok-c": "c"},
		gateway.Options{MaxConcurrent: 4}, session.Options{WarmCacheNodes: 1})
	for _, id := range []string{"a", "b", "c"} {
		if err := g.RegisterTenant(id, gateway.TenantConfig{MaxQueued: 100}); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, g, func(p *des.Proc) {
		for i := 0; i < 4; i++ {
			for _, tok := range []string{"tok-a", "tok-b", "tok-c"} {
				if _, err := g.Submit(p, gateway.Credential{Token: tok}, sleepJob(fmt.Sprintf("%s%d", tok, i), time.Duration(50+10*i)*time.Millisecond)); err != nil {
					t.Fatalf("submit: %v", err)
				}
			}
			p.Sleep(20 * time.Millisecond)
		}
		g.Drain(p)
	})
	rep, err := g.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rep.Session.StandingUSD <= 0 {
		t.Fatal("expected nonzero standing spend with a warm cache node")
	}
	if d := rep.AttributedUSD - rep.Session.TotalUSD; d < -1e-9 || d > 1e-9 {
		t.Errorf("attributed $%.12f does not partition session $%.12f (delta %g)",
			rep.AttributedUSD, rep.Session.TotalUSD, d)
	}
	var standing float64
	for _, ts := range rep.Tenants {
		standing += ts.StandingUSD
	}
	if d := standing - rep.Session.StandingUSD; d < -1e-9 || d > 1e-9 {
		t.Errorf("standing shares $%.12f do not partition session standing $%.12f", standing, rep.Session.StandingUSD)
	}
}

// TestServeResultAuthzAndRanges: ranged result serving returns the
// tenant's own bytes (whole and windowed) and rejects cross-tenant
// keys with ErrForbidden.
func TestServeResultAuthzAndRanges(t *testing.T) {
	g := openGateway(t, gateway.StaticTokens{"tok-a": "a", "tok-b": "b"}, gateway.Options{}, session.Options{})
	for _, id := range []string{"a", "b"} {
		if err := g.RegisterTenant(id, gateway.TenantConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	key := g.ResultKey("a", "out.bin")
	credA, credB := gateway.Credential{Token: "tok-a"}, gateway.Credential{Token: "tok-b"}
	drive(t, g, func(p *des.Proc) {
		c := objectstore.NewClient(g.Session().Rig().Store)
		if err := c.CreateBucket(p, "results"); err != nil {
			t.Fatalf("bucket: %v", err)
		}
		tk, err := g.Submit(p, credA, putJob("produce", "results", key, time.Millisecond, data))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, err := tk.Wait(p); err != nil {
			t.Fatalf("job: %v", err)
		}
		whole, err := g.ServeResult(p, credA, key, 0, -1)
		if err != nil {
			t.Fatalf("ServeResult whole: %v", err)
		}
		if got, _ := whole.Bytes(); string(got) != string(data) {
			t.Error("whole result bytes differ")
		}
		win, err := g.ServeResult(p, credA, key, 1000, 500)
		if err != nil {
			t.Fatalf("ServeResult window: %v", err)
		}
		if got, _ := win.Bytes(); string(got) != string(data[1000:1500]) {
			t.Error("windowed result bytes differ")
		}
		// A tenant's n goes straight to ReadRange: one whose end wraps past
		// MaxInt64 still reads through the end.
		if tail, err := g.ServeResult(p, credA, key, 60000, math.MaxInt64); err != nil {
			t.Errorf("ServeResult with n = MaxInt64: %v", err)
		} else if got, _ := tail.Bytes(); string(got) != string(data[60000:]) {
			t.Error("tail result bytes differ")
		}
		if _, err := g.ServeResult(p, credB, key, 0, -1); !errors.Is(err, gateway.ErrForbidden) {
			t.Errorf("cross-tenant read error = %v, want ErrForbidden", err)
		}
		if _, err := g.ServeResult(p, credB, "b", 0, -1); !errors.Is(err, gateway.ErrForbidden) {
			t.Errorf("prefix-length probe error = %v, want ErrForbidden", err)
		}
	})
	rep, err := g.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if want := int64(len(data) + 500 + len(data) - 60000); rep.Tenants[0].BytesServed != want {
		t.Errorf("BytesServed = %d, want %d", rep.Tenants[0].BytesServed, want)
	}
	if rep.Tenants[1].BytesServed != 0 {
		t.Errorf("forbidden reads credited %d bytes", rep.Tenants[1].BytesServed)
	}
}

// TestGatewayClosedLifecycle: Submit and ServeResult after Close fail
// with ErrGatewayClosed; double Close too.
func TestGatewayClosedLifecycle(t *testing.T) {
	g := openGateway(t, gateway.StaticTokens{"tok": "a"}, gateway.Options{}, session.Options{})
	if err := g.RegisterTenant("a", gateway.TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := g.Close(); !errors.Is(err, gateway.ErrGatewayClosed) {
		t.Errorf("double Close error = %v, want ErrGatewayClosed", err)
	}
	g.Session().Rig().Sim.Spawn("late", func(p *des.Proc) {
		if _, err := g.Submit(p, gateway.Credential{Token: "tok"}, sleepJob("late", time.Millisecond)); !errors.Is(err, gateway.ErrGatewayClosed) {
			t.Errorf("Submit after Close error = %v, want ErrGatewayClosed", err)
		}
		if _, err := g.ServeResult(p, gateway.Credential{Token: "tok"}, "a/x", 0, -1); !errors.Is(err, gateway.ErrGatewayClosed) {
			t.Errorf("ServeResult after Close error = %v, want ErrGatewayClosed", err)
		}
	})
	if err := g.Session().Rig().Sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}
