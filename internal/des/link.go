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
// instant go in (remaining, flow name) order as of that change. Fired
// logs depend on both.
//
// A flow completes in one of two ways, one event either way and in the
// same place: Transfer's flow wakes the process parked on it, and
// TransferAsync's flow schedules its callback where that wake would
// have gone. A caller that is a state machine rather than a process (a
// store stream) therefore fires exactly the events, in exactly the
// order, that a process doing the same transfers would. Start and Wait
// are Transfer's two halves, for the state machine whose last transfer
// is the one its parked process wakes from (a store PUT).
type Link struct {
	sim      *Sim
	capacity float64 // bytes/sec; <= 0 means unlimited
	// fit is the largest sum of caps for which waterfill is certain
	// to hand every flow exactly its cap (see assignRates).
	fit float64

	flows []*Flow
	// free holds finished flows for the next transfer: a link that has
	// reached its peak concurrency allocates nothing per transfer.
	free []*Flow
	// last is the instant every flow's remaining is current as of:
	// each membership change advances all of them together.
	last time.Duration

	// ev is the pending completion event and next the index in flows
	// of the flow it will try to finish; fireFn is the fire method
	// value, bound once so rescheduling does not allocate a closure.
	ev     Event
	next   int
	fireFn func()

	// Scratch for waterfillFlows, reused across calls.
	rates []float64
	order []capIdx

	// stats
	bytesMoved   float64
	transfersRun int64
}

// Flow is one transfer on a link. Callers see only the flow Start
// returns, and only to hand it to Wait.
type Flow struct {
	remaining float64
	bytes     float64 // the transfer's full size, for the stats
	cap       float64 // per-flow cap; +Inf means none
	rate      float64
	// name breaks exact ties on remaining: the parked process's name,
	// or the one TransferAsync was given.
	name string
	// Completion wakes proc or schedules done; exactly one is set.
	proc     *Proc
	done     func()
	finished bool
}

// before is the order completion events at the same instant fire in:
// least remaining first, flow name on exact ties.
func (f *Flow) before(g *Flow) bool {
	if f.remaining != g.remaining {
		return f.remaining < g.remaining
	}
	return f.name < g.name
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

// Capacity reports the configured capacity (<= 0 for unlimited).
func (l *Link) Capacity() float64 { return l.capacity }

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
	l.Wait(p, l.Start(p, bytes, flowCap))
}

// Start puts a transfer for p on the link and returns at once; its
// completion wakes p, which collects it with Wait. The caller need not
// be p: a callback may start the flow of a process that is already
// parked, and the process then resumes where Transfer would have
// resumed it. A zero-byte transfer is no flow at all (nil).
func (l *Link) Start(p *Proc, bytes int64, flowCap float64) *Flow {
	if bytes <= 0 {
		return nil
	}
	f := l.join(p.name, bytes, flowCap)
	f.proc = p
	return f
}

// Wait parks p until the flow Start gave it has moved its bytes, then
// gives the flow back to the link. A nil flow has nothing to wait for.
func (l *Link) Wait(p *Proc, f *Flow) {
	if f == nil {
		return
	}
	for !f.finished {
		p.Park()
	}
	l.release(f)
}

// TransferAsync is Transfer for a caller that is not a process: it
// returns at once and done fires as an event of the instant the bytes
// have moved, where Transfer's wake of a process called name would have
// fired. name orders this flow among flows that complete together (see
// Link). done runs on whichever goroutine holds the baton and must not
// block, like any scheduled callback. A zero-byte transfer schedules
// done at the current instant; done is never run from inside the call.
func (l *Link) TransferAsync(name string, bytes int64, flowCap float64, done func()) {
	if bytes <= 0 {
		l.sim.Schedule(l.sim.now, done)
		return
	}
	l.join(name, bytes, flowCap).done = done
}

// join puts a new flow on the link and reshares. The caller sets how
// the flow completes; nothing fires before it has.
func (l *Link) join(name string, bytes int64, flowCap float64) *Flow {
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
		name:      name,
	}
	if flowCap > 0 {
		f.cap = flowCap
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
	l.ev.Cancel()
	l.ev = Event{}
	if len(l.flows) == 0 {
		return
	}
	l.assignRates()
	now := l.sim.now
	next, nextAt := -1, time.Duration(0)
	for i, f := range l.flows {
		at := now
		if f.remaining > 0.5 && !math.IsInf(f.rate, 1) {
			if f.rate <= 0 {
				// No capacity at all: leave the flow parked; a later
				// membership change will reshare. This only happens
				// with a capacity so small that waterfill's fair share
				// underflows to zero, which validated configs cannot
				// produce.
				continue
			}
			// Round up so sub-nanosecond residues still make progress;
			// otherwise a tiny transfer at a huge rate reschedules
			// itself at the same instant forever.
			d := time.Duration(math.Ceil(f.remaining / f.rate * float64(time.Second)))
			if d < time.Nanosecond {
				d = time.Nanosecond
			}
			at = now + d
		}
		if next < 0 || at < nextAt || at == nextAt && f.before(l.flows[next]) {
			next, nextAt = i, at
		}
	}
	if next >= 0 {
		l.next = next
		l.ev = l.sim.Schedule(nextAt, l.fireFn)
	}
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
// (remaining, flow name) order: which of two flows with equal caps
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
// and reshares the rest.
func (l *Link) fire() {
	l.advance()
	// Self-correct rounding: if the flow is not actually done, leave
	// it in and reschedule.
	if f := l.flows[l.next]; f.remaining <= 0.5 {
		l.flows = slices.Delete(l.flows, l.next, l.next+1)
		l.bytesMoved += f.bytes
		l.transfersRun++
		if f.proc != nil {
			// Transfer releases the flow once its process has seen it
			// finished.
			f.finished = true
			f.proc.Wake()
		} else {
			l.sim.Schedule(l.sim.now, f.done)
			l.release(f)
		}
	}
	l.reshare()
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
