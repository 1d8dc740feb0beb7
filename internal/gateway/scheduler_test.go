package gateway

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/session"
)

// TestWaitClassCompaction pins a wait class's memory behavior: a
// ticket that launched stays in its class's shed queue until it reaches
// the front, so once launched tickets dominate the queue a compaction
// must drop them (so a long MaxQueueWait cannot pin launched tickets
// far beyond the pending count) without disturbing the admission order
// of the survivors.
func TestWaitClassCompaction(t *testing.T) {
	c := &waitClass{wait: time.Minute}
	const n = 512
	tks := make([]*Ticket, n)
	for i := range tks {
		tks[i] = &Ticket{Submitted: time.Duration(i) * time.Millisecond, queued: true}
		c.q.push(tks[i])
	}
	// "Launch" all but every 8th ticket, with the same bookkeeping as
	// the launch path.
	for i, tk := range tks {
		if i%8 == 3 {
			continue
		}
		tk.queued = false
		c.noteLaunch()
	}
	if c.q.len() >= n/2 {
		t.Fatalf("wait class holds %d tickets after %d launches, want < %d (compaction never ran)",
			c.q.len(), n-n/8, n/2)
	}
	live, last := 0, time.Duration(-1)
	for c.dropLaunched(); c.q.len() > 0; c.dropLaunched() {
		tk := c.q.pop()
		if tk.Submitted <= last {
			t.Fatalf("admission order broken after compaction: ticket admitted at %s surfaced after one admitted at %s",
				tk.Submitted, last)
		}
		last = tk.Submitted
		live++
	}
	if live != n/8 || c.launched != 0 {
		t.Fatalf("drained %d still-queued tickets with %d launched left uncounted, want %d and 0", live, c.launched, n/8)
	}
}

// TestFinishedTicketLetsGoOfItsJob: a ticket is a handle on a timeline
// and a report, held by submitters for as long as they like; it holds
// no job, so it cannot keep the job's Build closure (and through it the
// workflow and the stage closures) alive. The job waits beside it in the
// tenant's queue, then in the gateway's starting queue, and none of the
// tenant's queue, its wait class's shed queue and the starting queue may
// keep a ticket or a job in a popped slot of its backing array.
func TestFinishedTicketLetsGoOfItsJob(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	g := New(sess, StaticTokens{"tok": "a"}, Options{MaxConcurrent: 1})
	if err := g.RegisterTenant("a", TenantConfig{MaxQueued: 8, MaxQueueWait: 500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	tn := g.tenants["a"]
	tn.pending.q = make([]queuedJob, 0, 8)
	tn.class.q.q = make([]*Ticket, 0, 8)
	g.starting.q = make([]startingJob, 0, 8)
	// The queues' backing arrays, popped slots included: a queue that
	// never holds more than 8 entries keeps its array.
	pending, shed, starting := tn.pending.q[:8], tn.class.q.q[:8], g.starting.q[:8]
	// The first job takes the one slot for 1s; the next two queue and
	// are overdue by the time the last two arrive and trigger a dispatch.
	var ran, shedTks []*Ticket
	g.sim.Spawn("driver", func(p *des.Proc) {
		for i, d := range []time.Duration{time.Second, time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond} {
			if i == 3 {
				p.Sleep(600 * time.Millisecond)
			}
			tk, err := g.Submit(p, Credential{Token: "tok"}, sleepJob(d))
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			if tk.queued {
				if qj := tn.pending.q[len(tn.pending.q)-1]; qj.tk != tk || qj.job.Build == nil {
					t.Errorf("queued ticket %d has no job to launch beside it", i)
				}
			}
			if i == 1 || i == 2 {
				shedTks = append(shedTks, tk)
			} else {
				ran = append(ran, tk)
			}
		}
		g.Drain(p)
	})
	if err := g.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(ran) != 3 || len(shedTks) != 2 {
		t.Fatalf("submitted %d + %d tickets, want 3 + 2", len(ran), len(shedTks))
	}
	for i, tk := range ran {
		rep, err := tk.Report()
		if !tk.Done() || err != nil || rep == nil || len(rep.Stages) != 1 || rep.Stages[0].Name != "work" {
			t.Errorf("completed ticket %d: done %v, report %+v, err %v", i, tk.Done(), rep, err)
		}
	}
	for i, tk := range shedTks {
		if _, err := tk.Report(); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("shed ticket %d: err = %v, want ErrDeadlineExceeded", i, err)
		}
	}
	for i := range 8 {
		if qj := pending[i]; qj.tk != nil || qj.job.Build != nil {
			t.Errorf("pending queue slot %d still points at a ticket or a job after the drain", i)
		}
		if shed[i] != nil {
			t.Errorf("shed queue slot %d still points at a ticket after the drain", i)
		}
		if sj := starting[i]; sj.t != nil || sj.tk != nil || sj.job.Build != nil {
			t.Errorf("starting queue slot %d still points at a ticket or a job after the drain", i)
		}
	}
}

// FuzzShedOrder drives random registrations (1-4 distinct waits, some
// of them zero, shared by 1-6 tenants), arrival gaps and job lengths in
// 5 ms steps, so that deadlines tie across classes, through a gateway of
// 1-3 slots, and holds the shedding contract: after every Submit and
// every completion no queued ticket is overdue, shed tickets finish in
// (deadline, admission) order, and every admitted ticket finishes.
func FuzzShedOrder(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		step := func(n int) time.Duration { return time.Duration(r.Intn(n)) * 5 * time.Millisecond }
		sess, err := session.Open(calib.Local(), session.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		waits := make([]time.Duration, 1+r.Intn(4))
		for i, base := range r.Perm(12)[:len(waits)] {
			if r.Intn(5) > 0 {
				waits[i] = time.Duration(1+base) * 5 * time.Millisecond
			}
		}
		toks := StaticTokens{}
		var creds []Credential
		for i := 0; i < 1+r.Intn(6); i++ {
			id := fmt.Sprintf("t%d", i)
			toks[id] = id
			creds = append(creds, Credential{Token: id})
		}
		g := New(sess, toks, Options{MaxConcurrent: 1 + r.Intn(3)})
		waitOf := map[string]time.Duration{}
		for _, c := range creds {
			waitOf[c.Token] = waits[r.Intn(len(waits))]
			if err := g.RegisterTenant(c.Token, TenantConfig{Weight: 1 + r.Intn(3), MaxConcurrent: 1 + r.Intn(2),
				MaxQueued: 1 + r.Intn(32), MaxQueueWait: waitOf[c.Token]}); err != nil {
				t.Fatal(err)
			}
		}
		type admitted struct {
			tk       *Ticket
			deadline time.Duration // 0: no MaxQueueWait
		}
		var all []admitted
		var shed []int // indexes into all, in the order the waiters woke
		noneOverdue := func(now time.Duration, after string) {
			for i, a := range all {
				if a.tk.queued && a.deadline > 0 && a.deadline < now {
					t.Errorf("seed %d: after %s at %s, ticket %d (deadline %s) is queued and overdue", seed, after, now, i, a.deadline)
				}
			}
		}
		n := 1 + r.Intn(200)
		g.sim.Spawn("driver", func(p *des.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(step(3))
				c := creds[r.Intn(len(creds))]
				tk, err := g.Submit(p, c, sleepJob(step(16)+time.Millisecond))
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("seed %d: submit %d: %v", seed, i, err)
					return
				}
				idx := len(all)
				a := admitted{tk: tk}
				if w := waitOf[c.Token]; w > 0 {
					a.deadline = tk.Submitted + w
				}
				all = append(all, a)
				noneOverdue(p.Now(), "Submit")
				g.sim.Spawn("wait", func(w *des.Proc) {
					if _, err := tk.Wait(w); errors.Is(err, ErrDeadlineExceeded) {
						shed = append(shed, idx)
					}
					noneOverdue(w.Now(), "a finish")
				})
			}
			g.Drain(p)
		})
		if err := g.sim.Run(); err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
		for i, a := range all {
			if !a.tk.Done() {
				t.Errorf("seed %d: admitted ticket %d never finished", seed, i)
			}
		}
		for k := 1; k < len(shed); k++ {
			prev, cur := all[shed[k-1]], all[shed[k]]
			if cur.deadline < prev.deadline || cur.deadline == prev.deadline && shed[k] < shed[k-1] {
				t.Errorf("seed %d: shed ticket %d (deadline %s) finished after ticket %d (deadline %s)",
					seed, shed[k], cur.deadline, shed[k-1], prev.deadline)
			}
		}
		if _, err := g.Close(); err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
	})
}

// sleepJob is a one-stage job that sleeps for d.
func sleepJob(d time.Duration) session.Job {
	w := core.NewWorkflow("sleep")
	if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
		ctx.Proc.Sleep(d)
		return nil
	}}); err != nil {
		panic(err)
	}
	return session.WorkflowJob(w, nil)
}
