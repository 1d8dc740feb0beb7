package gateway

import (
	"fmt"
	"slices"
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
// Everything here iterates the runnable ring, never the registration
// table: a tenant enters the ring when its first pending ticket is
// admitted and leaves at the first round boundary that finds it
// drained, so dispatch cost scales with tenants that have work, not
// with tenants that exist. At the roadmap's 100k-tenant scale that is
// the difference between O(active) and a 100x-slower full-table scan
// per submission (measured in BenchmarkGatewayDispatch).
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
// way a standing dispatcher would. The deadline heap hands over
// exactly the overdue tickets; tickets that launched before their
// deadline are skipped when their heap entry surfaces. Shed jobs count
// in the Shed ledger only, not Completed/Failed: the tenant's failure
// rate measures jobs that ran, the shed count measures backlog the
// gateway refused to burn shared capacity on.
func (g *Gateway) shedStale() {
	now := g.sim.Now()
	for len(g.deadlines) > 0 {
		top := g.deadlines[0]
		if top.at >= now {
			return
		}
		g.deadlines.pop()
		tk := top.tk
		if !tk.queued {
			g.deadlineDead-- // launched before the deadline; entry was dead
			continue
		}
		t := g.tenants[tk.Tenant]
		for i, q := range t.pending {
			if q == tk {
				t.pending = slices.Delete(t.pending, i, i+1) // clears the vacated tail slot
				break
			}
		}
		tk.queued = false
		tk.job = session.Job{}
		g.pendingTotal--
		t.stats.Shed++
		tk.finish(nil, fmt.Errorf("gateway: tenant %q: queued %s beyond MaxQueueWait %s: %w",
			t.id, now-tk.Submitted, t.cfg.MaxQueueWait, ErrDeadlineExceeded), now)
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
		if t.deficit >= 1 && len(t.pending) > 0 && t.inflight < t.cfg.MaxConcurrent {
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
		if len(t.pending) == 0 {
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

// deadlineEnt is one pending ticket's shed deadline.
type deadlineEnt struct {
	at  time.Duration
	seq int64 // admission order: FIFO tie-break for equal deadlines
	tk  *Ticket
}

// deadlineHeap is a binary min-heap over (deadline, admission seq).
// Entries are not removed when a ticket launches — shedStale skips
// non-queued tickets when they surface — so push/pop stay O(log
// pending) with only a counter increment on the launch path. Dead
// entries are swept out by maybeCompactDeadlines once they dominate
// the heap, so a long MaxQueueWait under high throughput cannot pin
// launched tickets (and their job payloads) far beyond the actual
// pending count.
type deadlineHeap []deadlineEnt

// maybeCompactDeadlines rebuilds the deadline heap without entries for
// already-launched tickets once they outnumber the live ones (and are
// numerous enough to matter) — the same lazy-deletion bargain as the
// DES kernel's event heap. The (deadline, seq) order of survivors is
// untouched.
func (g *Gateway) maybeCompactDeadlines() {
	if g.deadlineDead < 64 || g.deadlineDead*2 < len(g.deadlines) {
		return
	}
	old := g.deadlines
	kept := old[:0]
	for _, ent := range old {
		if ent.tk.queued {
			kept = append(kept, ent)
		}
	}
	for i := len(kept); i < len(old); i++ {
		old[i] = deadlineEnt{} // release the dropped tickets
	}
	g.deadlines = kept
	g.deadlineDead = 0
	// Floyd heapify: sift down every internal node, last parent first.
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.siftDown(i)
	}
}

// siftDown restores the heap property below index i.
func (h deadlineHeap) siftDown(i int) {
	n := len(h)
	ent := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && entBefore(h[c+1], h[c]) {
			c++
		}
		if !entBefore(h[c], ent) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ent
}

func (h *deadlineHeap) push(at time.Duration, seq int64, tk *Ticket) {
	g := *h
	g = append(g, deadlineEnt{})
	i := len(g) - 1
	ent := deadlineEnt{at: at, seq: seq, tk: tk}
	for i > 0 {
		p := (i - 1) / 2
		if !entBefore(ent, g[p]) {
			break
		}
		g[i] = g[p]
		i = p
	}
	g[i] = ent
	*h = g
}

func (h *deadlineHeap) pop() {
	g := *h
	n := len(g) - 1
	tail := g[n]
	g[n] = deadlineEnt{}
	g = g[:n]
	*h = g
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && entBefore(g[c+1], g[c]) {
			c++
		}
		if !entBefore(g[c], tail) {
			break
		}
		g[i] = g[c]
		i = c
	}
	g[i] = tail
}

func entBefore(a, b deadlineEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
