package des

import (
	"math"
	"slices"
	"time"
)

// Link models a shared transmission medium (a NIC, a storage service's
// backend fabric) with max-min fair bandwidth sharing among concurrent
// transfers, each optionally capped (e.g. a per-connection limit).
//
// Whenever a transfer starts or finishes, every active flow's rate is
// recomputed by water-filling, so a lone transfer gets the full
// capacity and n equal transfers each get capacity/n (or their cap,
// whichever is lower).
//
// The link keeps one pending completion event, for the flow that
// finishes first. A membership change advances every flow, reassigns
// rates and moves that one event: O(flows) arithmetic, no allocation.
// The event is rescheduled at every change even when its flow and
// instant stay the same: among other events of that instant it takes
// the place of the latest change, and completions that share an
// instant go by (remaining, join order) as of that change. Fired
// logs depend on both. The move is made in place on the kernel's heap
// (Sim.move): the event takes the seq a cancel and a fresh Schedule
// would have drawn, so it fires where that one would, for one sift
// where those two take two.
//
// A change costs one loop over the flows while the link is steady:
// every flow in flight has the same finite cap, every one runs at it,
// and as many such caps as there will be flows after the change sum to
// no more than fit (or the link is unlimited). Then advance would take
// the same elapsed*cap off every flow, assignRates would hand every
// flow the cap it already has, and reshare's search would compare
// finishing instants that all come from one rate. An instant computed
// by finishAt never falls as remaining grows, and reshare already
// breaks ties on the instant by (remaining, join order); so the flow
// with the least (remaining, join order) is the flow reshare would
// pick, and finishAt of that one flow is its instant.
// sweep is that loop: subtract, clamp at zero, keep the least. Nothing
// about it is approximate, and the event is moved exactly as on the
// general path.
//
// The link tells from state it keeps as flows come and go, in O(1):
// cap1, the cap of the flow that joined when the link was last empty;
// odd, how many flows in flight are capped otherwise or not at all; and
// sums, where sums[k] is k caps added left to right, the very sum
// assignRates would compare with fit. That every flow already runs at
// cap1 needs no flag. Whichever path served the last change, flows all
// capped at cap1 were left at it exactly when their sum was within fit,
// the one test both paths make; the sums only grow with the count; and
// a join is tested with the newcomer counted, a completion with the
// flow that is about to leave still counted. What sends a link to the
// general path, advance then assignRates then reshare as before, is
// therefore a flow with another cap or none (until the link next
// drains), a count whose caps do not fit, and the completion that
// leaves a count that fits again behind it: its flows carry waterfilled
// rates, are advanced at those, and pass through assignRates before
// sweep takes them at cap1.
//
// A flow completes in one of two ways, one event either way and in the
// same place: Start's flow wakes its process, and TransferAsync's flow
// schedules its callback where that wake would have gone. A caller that
// is a state machine rather than a process (a store stream) therefore
// fires exactly the events, in exactly the order, that a process doing
// the same transfers would. Transfer is Start, then a park until Collect
// takes the flow back; a chain working for a parked process (a store
// request, Proc.Await) collects it at that wake instead.
type Link struct {
	sim      *Sim
	capacity float64 // bytes/sec; <= 0 means unlimited
	// fit is the largest sum of caps for which waterfill is certain
	// to hand every flow exactly its cap (see assignRates).
	fit float64

	flows []*Flow
	// joins numbers the flows in the order they joined (Flow.seq).
	joins uint64
	// free holds finished flows for the next transfer: a link that has
	// reached its peak concurrency allocates nothing per transfer.
	free []*Flow
	// last is the instant every flow's remaining is current as of:
	// each membership change advances all of them together.
	last time.Duration

	// ev is the pending completion event, zero once it has fired or
	// been canceled, and next the index in flows of the flow it will try
	// to finish; fireFn is the fire method value, bound once so
	// rescheduling does not allocate a closure.
	ev     Event
	next   int
	fireFn func()

	// What tells a steady link (see the type's comment): cap1 is the cap
	// of the flow that joined when the link was last empty, odd counts
	// the flows in flight capped otherwise or not at all, and sums[k] is
	// k caps of cap1 added left to right.
	cap1 float64
	odd  int
	sums []float64

	// Scratch for waterfillFlows, reused across calls.
	rates []float64
	order []capIdx

	// stats
	bytesMoved   float64
	transfersRun int64
}

// Flow is one transfer on a link. Callers see only the flow Start
// returns, and only to hand it to Collect.
type Flow struct {
	remaining float64
	bytes     float64 // the transfer's full size, for the stats
	cap       float64 // per-flow cap; +Inf means none
	rate      float64
	// seq is the flow's place in the order flows joined this link, and
	// breaks exact ties on remaining.
	seq uint64
	// Completion wakes proc or schedules done; exactly one is set.
	proc     *Proc
	done     func()
	finished bool
}

// before is the order completion events at the same instant fire in:
// least remaining first, the earlier joiner on exact ties. No two flows
// of a link share a seq, so the order is total.
func (f *Flow) before(g *Flow) bool {
	if f.remaining != g.remaining {
		return f.remaining < g.remaining
	}
	return f.seq < g.seq
}

// fitSlack is the relative headroom assignRates demands before it
// skips waterfill. Waterfill takes the caps in ascending order and
// hands flow k its cap when cap_k*(n-k) is at most what k roundings
// have left of capacity - cap_0 - ... - cap_k-1, each off by at most
// 2^-53 of the capacity; as cap_k*(n-k) is at most the sum of the caps
// still to come, caps summing to capacity*(1-n*2^-53) or less all
// pass. 2^-20 covers that, and the rounding in summing the caps, for
// any flow count below 2^30.
const fitSlack = 1.0 / (1 << 20)

// NewLink returns a link with the given capacity in bytes/second.
// capacity <= 0 means the link is unlimited and only per-flow caps (if
// any) constrain transfers.
func NewLink(s *Sim, capacity float64) *Link {
	l := &Link{
		sim:      s,
		capacity: capacity,
		// Never +Inf, so a sum of caps holding an uncapped flow
		// cannot pass.
		fit: math.Min(capacity*(1-fitSlack), math.MaxFloat64),
	}
	l.fireFn = l.fire
	return l
}

// ActiveFlows reports the number of in-flight transfers.
func (l *Link) ActiveFlows() int { return len(l.flows) }

// BytesMoved reports the total bytes completed over the link.
func (l *Link) BytesMoved() float64 { return l.bytesMoved }

// Transfers reports the number of completed transfers.
func (l *Link) Transfers() int64 { return l.transfersRun }

// Transfer moves bytes over the link, blocking p for the modeled
// duration. flowCap (> 0) additionally caps this flow's rate, e.g. to
// model a single TCP connection's ceiling. Zero-byte transfers return
// immediately.
func (l *Link) Transfer(p *Proc, bytes int64, flowCap float64) {
	for f := l.Start(p, bytes, flowCap); !l.Collect(f); {
		p.Park()
	}
}

// Start puts a transfer for p on the link and returns at once; its
// completion wakes p, and Collect takes it back. The caller need not
// be p: a callback may start the flow of a process that is already
// parked, and the process then resumes where Transfer would have
// resumed it. A zero-byte transfer is no flow at all (nil).
func (l *Link) Start(p *Proc, bytes int64, flowCap float64) *Flow {
	if bytes <= 0 {
		return nil
	}
	f := l.join(bytes, flowCap)
	f.proc = p
	return f
}

// Collect reports whether the flow Start gave has moved its bytes and, if
// it has, gives it back to the link: f must not be used again. A nil flow
// has nothing to move. A wake of the flow's process that comes before
// the flow has finished was not its completion.
func (l *Link) Collect(f *Flow) bool {
	if f == nil {
		return true
	}
	if !f.finished {
		return false
	}
	l.release(f)
	return true
}

// TransferAsync is Transfer for a caller that is not a process: it
// returns at once and done fires as an event of the instant the bytes
// have moved, where Transfer's wake of a process that joined at this
// point would have fired. Among flows that complete together it goes by
// when it joined (see Link). done runs on whichever goroutine holds the
// baton and must not block, like any scheduled callback. A zero-byte
// transfer schedules done at the current instant; done is never run
// from inside the call.
func (l *Link) TransferAsync(bytes int64, flowCap float64, done func()) {
	if bytes <= 0 {
		l.sim.Schedule(l.sim.now, done)
		return
	}
	l.join(bytes, flowCap).done = done
}

// join puts a new flow on the link, next in join order, and reshares.
// The caller sets how the flow completes; nothing fires before it has.
func (l *Link) join(bytes int64, flowCap float64) *Flow {
	var f *Flow
	if n := len(l.free); n > 0 {
		f, l.free = l.free[n-1], l.free[:n-1]
	} else {
		f = new(Flow)
	}
	*f = Flow{
		remaining: float64(bytes),
		bytes:     float64(bytes),
		cap:       math.Inf(1),
		seq:       l.joins,
	}
	l.joins++
	if flowCap > 0 {
		f.cap = flowCap
	}
	if len(l.flows) == 0 && f.cap != l.cap1 {
		// The one cap is whatever the first flow brings.
		l.cap1, l.sums = f.cap, l.sums[:0]
	}
	if l.oddCap(f) {
		l.odd++
	}
	if l.steadyWith(len(l.flows) + 1) {
		// The newcomer has moved nothing yet: it enters current, at its
		// cap, last in the search.
		f.rate = f.cap
		l.flows = append(l.flows, f)
		l.sweep(l.moved(), len(l.flows)-1)
		return f
	}
	l.advance()
	l.flows = append(l.flows, f)
	l.reshare()
	return f
}

// release returns a finished flow to the free list, dropping what it
// points at.
func (l *Link) release(f *Flow) {
	*f = Flow{}
	l.free = append(l.free, f)
}

// advance progresses every flow's remaining byte count to the current
// virtual time at its previous rate.
func (l *Link) advance() {
	now := l.sim.now
	elapsed := (now - l.last).Seconds()
	l.last = now
	for _, f := range l.flows {
		if math.IsInf(f.rate, 1) {
			// An uncapped flow on an unlimited link completes
			// instantly regardless of elapsed time.
			f.remaining = 0
			continue
		}
		if elapsed > 0 && f.rate > 0 {
			f.remaining -= elapsed * f.rate
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
}

// reshare recomputes fair-share rates and moves the completion event
// to the flow that now finishes first. The flows must be advanced to
// the current instant.
func (l *Link) reshare() {
	l.assignRates()
	now := l.sim.now
	next, nextAt := -1, time.Duration(0)
	for i, f := range l.flows {
		if f.rate <= 0 && f.remaining > 0.5 {
			// No capacity at all: leave the flow parked; a later
			// membership change will reshare. This only happens
			// with a capacity so small that waterfill's fair share
			// underflows to zero, which validated configs cannot
			// produce.
			continue
		}
		at := finishAt(now, f.remaining, f.rate)
		if next < 0 || at < nextAt || at == nextAt && f.before(l.flows[next]) {
			next, nextAt = i, at
		}
	}
	l.moveEvent(next, nextAt)
}

// moveEvent moves the completion event to the instant at, for
// flows[next], or cancels it when next is -1 (no flow can finish).
func (l *Link) moveEvent(next int, at time.Duration) {
	if next < 0 {
		l.ev.Cancel()
		l.ev = Event{}
		return
	}
	l.next = next
	l.ev = l.sim.move(l.ev, at, l.fireFn, nil)
}

// assignRates sets every flow's rate to its max-min fair share. When
// the caps sum to no more than the capacity (with fitSlack to spare),
// or the link is unlimited, waterfill returns the caps themselves, so
// they are assigned directly; otherwise waterfillFlows runs it.
func (l *Link) assignRates() {
	identity := l.capacity <= 0
	if !identity {
		var sum float64
		for _, f := range l.flows {
			sum += f.cap
		}
		identity = sum <= l.fit
	}
	if !identity {
		l.waterfillFlows()
		return
	}
	for _, f := range l.flows {
		f.rate = f.cap
	}
}

// waterfillFlows assigns rates by waterfill over the flows taken in
// (remaining, join order): which of two flows with equal caps
// gets the last-bit-different share depends on that order. The flows
// are sorted in place, so while the link stays bound the next call
// finds them nearly sorted.
func (l *Link) waterfillFlows() {
	slices.SortFunc(l.flows, func(a, b *Flow) int {
		if a.before(b) {
			return -1
		}
		if b.before(a) {
			return 1
		}
		return 0
	})
	l.rates = l.rates[:0]
	for _, f := range l.flows {
		l.rates = append(l.rates, f.cap)
	}
	l.order = waterfill(l.capacity, l.rates, l.order)
	for i, f := range l.flows {
		f.rate = l.rates[i]
	}
}

// fire is the completion event: it finishes the flow the event was
// scheduled for (one event: the wake of its process, or its callback)
// and reshares the rest. The handle it fired through is dropped first,
// so the reshare schedules afresh rather than cancel a spent handle.
func (l *Link) fire() {
	l.ev = Event{}
	if l.steadyWith(len(l.flows)) {
		// Tested with the flow that may leave still counted: a count
		// that fits runs at its caps, and one fewer fits as well. That
		// flow is brought up to date ahead of the rest, to know whether
		// it leaves before the one pass over those that stay.
		moved := l.moved()
		f, kept := l.flows[l.next], -1
		if f.remaining -= moved; f.remaining < 0 {
			f.remaining = 0
		}
		if f.remaining <= 0.5 {
			l.complete(l.next)
		} else {
			kept = l.next
		}
		l.sweep(moved, kept)
		return
	}
	l.advance()
	// Self-correct rounding: if the flow is not actually done, leave
	// it in and reschedule.
	if l.flows[l.next].remaining <= 0.5 {
		l.complete(l.next)
	}
	l.reshare()
}

// complete takes flows[i], which has moved its bytes, off the link and
// fires its one event.
func (l *Link) complete(i int) {
	f := l.flows[i]
	l.flows = slices.Delete(l.flows, i, i+1)
	if l.oddCap(f) {
		l.odd--
	}
	l.bytesMoved += f.bytes
	l.transfersRun++
	if f.proc != nil {
		// Collect releases the flow once its process has seen it
		// finished.
		f.finished = true
		f.proc.Wake()
	} else {
		l.sim.Schedule(l.sim.now, f.done)
		l.release(f)
	}
}

// oddCap reports whether f keeps the link off the steady path: its cap
// is not the one the link's table of sums is for, or it has none.
func (l *Link) oddCap(f *Flow) bool {
	return f.cap != l.cap1 || math.IsInf(f.cap, 1)
}

// steadyWith reports whether the link is steady with n flows: all of
// them capped at cap1, and n such caps within what assignRates hands
// out untouched. The sum is assignRates' own, k additions from zero,
// kept per k. The flows of a steady link run at cap1 (see Link).
func (l *Link) steadyWith(n int) bool {
	if l.odd > 0 {
		return false
	}
	if l.capacity <= 0 {
		return true
	}
	for k := len(l.sums); k <= n; k++ {
		var sum float64
		if k > 0 {
			sum = l.sums[k-1] + l.cap1
		}
		l.sums = append(l.sums, sum)
	}
	return l.sums[n] <= l.fit
}

// moved brings a steady link's clock to the current instant and
// returns the bytes every flow in flight has moved since it was last
// there: advance's elapsed*rate, the same for all at one rate.
func (l *Link) moved() float64 {
	elapsed := (l.sim.now - l.last).Seconds()
	l.last = l.sim.now
	return elapsed * l.cap1
}

// sweep is advance, assignRates and reshare in one pass, for a steady
// link: every flow ran at cap1 and goes on at it, so each has the same
// moved bytes taken off and the flow with the least left, the earlier
// joiner on ties, is the one reshare would pick, as a flow's finishing
// instant never falls as what it has left grows. current is
// the index of a flow that is already up to date (the one that joined,
// or the one fire found unfinished), -1 for none.
func (l *Link) sweep(moved float64, current int) {
	next := -1
	var least float64
	var seq uint64
	for i, f := range l.flows {
		left := f.remaining
		if moved > 0 && i != current {
			if left -= moved; left < 0 {
				left = 0
			}
			f.remaining = left
		}
		if next < 0 || left < least || left == least && f.seq < seq {
			next, least, seq = i, left, f.seq
		}
	}
	l.moveEvent(next, finishAt(l.sim.now, least, l.cap1))
}

// finishAt is the instant a flow with remaining bytes left finishes
// at rate, seen from now: now itself with half a byte or less to go or
// nothing limiting it, else remaining over rate from now.
func finishAt(now time.Duration, remaining, rate float64) time.Duration {
	if remaining <= 0.5 || math.IsInf(rate, 1) {
		return now
	}
	// Round up so sub-nanosecond residues still make progress;
	// otherwise a tiny transfer at a huge rate reschedules itself at
	// the same instant forever.
	d := time.Duration(math.Ceil(remaining / rate * float64(time.Second)))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return now + d
}

// capIdx is one flow's cap and its position in the caller's slice,
// the element waterfill sorts.
type capIdx struct {
	idx int
	cap float64
}

// Waterfill computes max-min fair rates for flows with the given
// per-flow caps sharing total capacity. capacity <= 0 means unlimited
// (each flow simply gets its cap, or +Inf with no cap). The returned
// slice is parallel to caps.
func Waterfill(capacity float64, caps []float64) []float64 {
	rates := append(make([]float64, 0, len(caps)), caps...)
	waterfill(capacity, rates, nil)
	return rates
}

// waterfill is Waterfill in place: rates holds the caps on entry and
// the rates on return. order is scratch, returned (grown if it was too
// short) for reuse.
func waterfill(capacity float64, rates []float64, order []capIdx) []capIdx {
	if capacity <= 0 {
		return order
	}
	order = order[:0]
	for i, c := range rates {
		order = append(order, capIdx{idx: i, cap: c})
	}
	slices.SortFunc(order, func(a, b capIdx) int {
		if a.cap < b.cap {
			return -1
		}
		if a.cap > b.cap {
			return 1
		}
		return 0
	})
	remaining := capacity
	left := len(order)
	for _, oc := range order {
		fair := remaining / float64(left)
		if oc.cap <= fair {
			remaining -= oc.cap
		} else {
			rates[oc.idx] = fair
			remaining -= fair
		}
		left--
	}
	return order
}
