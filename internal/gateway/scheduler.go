package gateway

import (
	"fmt"
	"time"

	"github.com/faaspipe/faaspipe/internal/session"
)

// Weighted deficit round-robin fair-share dispatch.
//
// The scheduler divides the gateway's shared concurrency among tenants
// in proportion to their weights. Each round credits every runnable
// tenant `weight` deficit units; a launch spends one unit. Rounds
// persist across dispatch calls — the crediting cursor picks up where
// the last free slot left off rather than restarting per call —
// because under a tight global cap only a slot or two frees at a time,
// and restarting the round on each call would collapse weighted shares
// back to 1:1 alternation.
//
// Nothing here iterates the registration table. DRR iterates the
// runnable ring: a tenant enters it when its first pending ticket is
// admitted and leaves at the first round boundary that finds it
// drained. Shedding iterates the wait classes that hold a ticket, one
// FIFO per distinct MaxQueueWait, whose order is already deadline
// order. So dispatch cost scales with tenants that have work, not with
// tenants or waits that exist. At the roadmap's 100k-tenant scale that
// is the difference between O(active) and a 100x-slower full-table
// scan per submission (measured in BenchmarkGatewayDispatch, whose idle
// tenants each have a wait of their own).
//
// Starvation accounting is structural: a tenant that entered a round
// with work pending and exited it with no launches (while other
// tenants launched) increments Starved. DRR's round discipline makes
// that impossible — every backlogged tenant is credited and visited
// each round — so a nonzero counter means the scheduler is broken, and
// the experiment asserts it stays zero.

// dispatch fills free gateway slots from the pending queues under the
// DRR discipline. Called inline from Submit and from job completion;
// there is no standing dispatcher process (one would hold the
// simulation's event heap hostage between arrivals).
func (g *Gateway) dispatch() {
	g.shedStale()
	for g.active < g.opts.MaxConcurrent && g.pendingTotal > 0 {
		t := g.nextCredited()
		if t == nil {
			// Everyone with work is out of credit (or at their own
			// concurrency cap): start a new round. If replenishing
			// credits still unlocks nobody, the backlog is blocked on
			// per-tenant caps — in-flight completions will re-dispatch.
			if !g.startRound() {
				return
			}
			continue
		}
		t.deficit--
		g.launch(t)
	}
}

// shedStale drops pending tickets that have outwaited their tenant's
// MaxQueueWait, finishing them with ErrDeadlineExceeded. Shedding is
// lazy — checked at dispatch time, not on a timer — which is exact
// enough: a ticket can only launch through dispatch, so no stale
// ticket ever reaches the session, and a standing timer process would
// hold the simulation's event heap hostage between arrivals the same
// way a standing dispatcher would. Only wait classes that hold a ticket
// are looked at, and a class's front is its next ticket to fall due, so
// the overdue front that falls due first — by deadline, then by
// admission — is the next ticket to shed. It is also its tenant's
// oldest: every ticket ahead of it in the tenant's queue was admitted
// earlier under the same wait, so it fell due earlier and is already
// gone. Shed jobs count in the Shed ledger only, not Completed/Failed:
// the tenant's failure rate measures jobs that ran, the shed count
// measures backlog the gateway refused to burn shared capacity on.
func (g *Gateway) shedStale() {
	now := g.sim.Now()
	for {
		var due *waitClass
		kept := g.shedding[:0]
		for _, c := range g.shedding {
			c.dropLaunched()
			if c.q.len() == 0 {
				c.listed = false
				continue
			}
			kept = append(kept, c)
			if c.deadline() < now && (due == nil || c.dueBefore(due)) {
				due = c
			}
		}
		clear(g.shedding[len(kept):])
		g.shedding = kept
		if due == nil {
			return
		}
		tk := due.q.pop()
		t := g.tenants[tk.Tenant]
		if t.pending.pop().tk != tk {
			panic("gateway: shed ticket is not its tenant's oldest")
		}
		tk.queued = false
		g.pendingTotal--
		t.stats.Shed++
		tk.finish(nil, fmt.Errorf("gateway: tenant %q: queued %s beyond MaxQueueWait %s: %w",
			t.id, now-tk.Submitted, due.wait, ErrDeadlineExceeded), now)
	}
}

// nextCredited scans the runnable ring from the round cursor for a
// tenant that can spend credit now: deficit available, work pending,
// below its own concurrency cap. Advancing rrPos only past tenants
// that cannot launch preserves each tenant's remaining credit for
// later in the same round.
func (g *Gateway) nextCredited() *tenant {
	n := len(g.runnable)
	for i := 0; i < n; i++ {
		t := g.runnable[(g.rrPos+i)%n]
		if t.deficit >= 1 && t.pending.len() > 0 && t.inflight < t.cfg.MaxConcurrent {
			g.rrPos = (g.rrPos + i) % n
			return t
		}
	}
	return nil
}

// startRound closes out the finished round's starvation accounting,
// retires drained tenants from the ring, and credits the next round.
// It reports whether any tenant can now launch; false means dispatch
// must wait for completions.
func (g *Gateway) startRound() bool {
	launched := false
	for _, t := range g.runnable {
		if t.launchedInRound > 0 {
			launched = true
			break
		}
	}
	dispatchable := false
	kept := g.runnable[:0]
	for _, t := range g.runnable {
		if g.rounds > 0 && launched && t.pendingAtRoundStart &&
			t.launchedInRound == 0 && t.inflight < t.cfg.MaxConcurrent {
			// The tenant had queued work and open capacity for a full
			// round in which others launched, yet got nothing: starved.
			g.starved++
			t.stats.StarvedRounds++
		}
		t.launchedInRound = 0
		if t.pending.len() == 0 {
			// Drained: leave the ring (keeping any unspent credit, up
			// to the bank cap). The next admitted ticket re-enters the
			// tenant through enterRunnable.
			t.runnable = false
			t.pendingAtRoundStart = false
			continue
		}
		t.pendingAtRoundStart = true
		// Credit the new round. Unused credit carries over (that is the
		// "deficit" in DRR — a tenant skipped while capped keeps its
		// claim), but capped at two rounds' worth so a backlogged-but-
		// capped tenant cannot bank an unbounded burst.
		t.deficit += float64(t.cfg.Weight)
		if max := 2 * float64(t.cfg.Weight); t.deficit > max {
			t.deficit = max
		}
		if t.deficit >= 1 && t.inflight < t.cfg.MaxConcurrent {
			dispatchable = true
		}
		kept = append(kept, t)
	}
	for i := len(kept); i < len(g.runnable); i++ {
		g.runnable[i] = nil // let retired tenants out of the ring's backing array
	}
	g.runnable = kept
	g.rounds++
	g.rrPos = 0
	return dispatchable
}

// fifo is a queue: q[head:] are queued, oldest first. Popped slots are
// cleared, and the slice restarts at its base whenever it empties or
// fills (as des.Resource's queue does), so a queue that has reached its
// peak length allocates nothing per entry.
type fifo[T any] struct {
	q    []T
	head int
}

func (q *fifo[T]) len() int { return len(q.q) - q.head }

func (q *fifo[T]) front() T { return q.q[q.head] }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.q) == cap(q.q) {
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, v)
}

func (q *fifo[T]) pop() T {
	v := q.q[q.head]
	var zero T
	q.q[q.head] = zero // the backing array must not keep a popped entry
	if q.head++; q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
	}
	return v
}

// queuedJob is an entry of a tenant's pending queue: the job waits there
// beside its ticket, so a ticket never holds a job and pins no workflow
// once it left the queue.
type queuedJob struct {
	tk  *Ticket
	job session.Job
}

// startingJob is a launched job waiting for its process to start.
type startingJob struct {
	t *tenant
	queuedJob
}

// waitClass is the shed queue of the tenants that share one
// MaxQueueWait: every ticket they admitted that has not been shed or
// dropped, in admission order. A tenant's wait never changes and
// admission instants only grow, so admission order is deadline order,
// and the front that is still queued is the class's next ticket to
// fall due. A ticket that launches stays in the queue until it reaches
// the front (dropLaunched) or compaction drops it.
type waitClass struct {
	wait     time.Duration
	q        fifo[*Ticket]
	launched int  // tickets in q that launched
	listed   bool // in Gateway.shedding
}

// deadline is the instant the front ticket falls due.
func (c *waitClass) deadline() time.Duration { return c.q.front().Submitted + c.wait }

// dueBefore orders two classes' fronts by deadline, then by admission:
// equal deadlines under different waits are different admission
// instants, so this is the order of (deadline, admission sequence).
func (c *waitClass) dueBefore(d *waitClass) bool {
	if cd, dd := c.deadline(), d.deadline(); cd != dd {
		return cd < dd
	}
	return c.q.front().Submitted < d.q.front().Submitted
}

// dropLaunched pops launched tickets off the front.
func (c *waitClass) dropLaunched() {
	for c.q.len() > 0 && !c.q.front().queued {
		c.q.pop()
		c.launched--
	}
}

// noteLaunch counts a ticket of the class that launched. Once launched
// tickets reach 64 and outnumber the queued ones, they are filtered out
// in order, so a long MaxQueueWait under high throughput cannot pin
// launched tickets far beyond the pending count.
func (c *waitClass) noteLaunch() {
	if c.launched++; c.launched >= 64 && 2*c.launched >= c.q.len() {
		c.keepQueued()
		c.launched = 0
	}
}

// keepQueued drops the tickets that are no longer queued, keeping the
// others in order.
func (c *waitClass) keepQueued() {
	q := &c.q
	kept := q.q[:0]
	for _, tk := range q.q[q.head:] {
		if tk.queued {
			kept = append(kept, tk)
		}
	}
	clear(q.q[len(kept):])
	q.q, q.head = kept, 0
}
