package gateway

import (
	"errors"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/session"
)

// TestDeadlineHeapCompaction pins the deadline heap's memory behavior:
// entries for tickets that launched before their deadline surfaced are
// dead weight, and once they dominate the heap a compaction sweep must
// drop them (so a long MaxQueueWait cannot pin launched tickets far
// beyond the pending count) without disturbing the (deadline, seq)
// order of the survivors.
func TestDeadlineHeapCompaction(t *testing.T) {
	g := &Gateway{}
	const n = 512
	tks := make([]*Ticket, n)
	for i := 0; i < n; i++ {
		tks[i] = &Ticket{queued: true}
		g.shedSeq++
		// Decreasing deadlines so every push sifts to the root.
		g.deadlines.push(time.Duration(n-i)*time.Second, g.shedSeq, tks[i])
	}
	// "Launch" all but every 8th ticket, with the same bookkeeping as
	// the launch path.
	for i, tk := range tks {
		if i%8 == 3 {
			continue
		}
		tk.queued = false
		g.deadlineDead++
		g.maybeCompactDeadlines()
	}
	if len(g.deadlines) >= n/2 {
		t.Fatalf("deadline heap holds %d entries after %d launches, want < %d (compaction never ran)",
			len(g.deadlines), n-n/8, n/2)
	}
	var last deadlineEnt
	live := 0
	for first := true; len(g.deadlines) > 0; first = false {
		top := g.deadlines[0]
		g.deadlines.pop()
		if !first && entBefore(top, last) {
			t.Fatalf("heap order broken after compaction: (%v, %d) surfaced after (%v, %d)",
				top.at, top.seq, last.at, last.seq)
		}
		last = top
		if top.tk.queued {
			live++
		}
	}
	if live != n/8 {
		t.Fatalf("drained %d still-queued entries, want %d", live, n/8)
	}
}

// TestFinishedTicketLetsGoOfItsJob: a ticket is a handle on a timeline
// and a report, held by submitters for as long as they like; once its
// job launched or was shed it must not keep the job's Build closure (and
// through it the workflow and the stage closures) alive, and the
// tenant's queue must not keep the ticket in a popped slot.
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
	tn.pending = make([]*Ticket, 0, 8)
	slots := tn.pending[:8] // the queue's backing array, popped slots included
	job := func(d time.Duration) session.Job {
		w := core.NewWorkflow("sleep")
		if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
			ctx.Proc.Sleep(d)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		return session.WorkflowJob(w, nil)
	}
	// The first job takes the one slot for 1s; the next two queue and
	// are overdue by the time the last two arrive and trigger a dispatch.
	var ran, shed []*Ticket
	g.sim.Spawn("driver", func(p *des.Proc) {
		for i, d := range []time.Duration{time.Second, time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond} {
			if i == 3 {
				p.Sleep(600 * time.Millisecond)
			}
			tk, err := g.Submit(p, Credential{Token: "tok"}, job(d))
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			if tk.queued && tk.job.Build == nil {
				t.Errorf("queued ticket %d has no job to launch", i)
			}
			if i == 1 || i == 2 {
				shed = append(shed, tk)
			} else {
				ran = append(ran, tk)
			}
		}
		g.Drain(p)
	})
	if err := g.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(ran) != 3 || len(shed) != 2 {
		t.Fatalf("submitted %d + %d tickets, want 3 + 2", len(ran), len(shed))
	}
	for i, tk := range ran {
		rep, err := tk.Report()
		if !tk.Done() || err != nil || rep == nil || len(rep.Stages) != 1 || rep.Stages[0].Name != "work" {
			t.Errorf("completed ticket %d: done %v, report %+v, err %v", i, tk.Done(), rep, err)
		}
		if tk.job.Build != nil {
			t.Errorf("completed ticket %d still holds its job", i)
		}
	}
	for i, tk := range shed {
		if _, err := tk.Report(); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("shed ticket %d: err = %v, want ErrDeadlineExceeded", i, err)
		}
		if tk.job.Build != nil {
			t.Errorf("shed ticket %d still holds its job", i)
		}
	}
	for i, tk := range slots {
		if tk != nil {
			t.Errorf("queue slot %d still points at a ticket after the drain", i)
		}
	}
}
