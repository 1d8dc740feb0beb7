package des

import (
	"math"
	"sort"
	"time"
)

// This file is the Link as it stood before PR 13 — a map of flows,
// one completion event per flow, every one of them cancelled and
// rescheduled through a fresh closure at every membership change,
// sort.Slice for both orderings — kept verbatim (names prefixed) as
// the oracle the differential tests in link_diff_test.go drive the
// production Link against. It is not a second implementation to
// maintain: change Link's behaviour on purpose and this file is what
// tells you every instant, wake order and event count that moved.
//
// Three things have changed since, each to follow a rule the Link was
// given on purpose. Exact ties on remaining fall to the order flows
// joined (seq), not to the process's name. A flow may end in a callback
// instead of a process's wake (TransferAsync), scheduled where the wake
// would go. And a flow's bytes count as moved when it finishes, not when
// its process next runs, so one whose process was killed at a horizon
// counts as well.

// oracleLink models a shared transmission medium (a NIC, a storage service's
// backend fabric) with max-min fair bandwidth sharing among concurrent
// transfers, each optionally capped (e.g. a per-connection limit).
//
// Whenever a transfer starts or finishes, every active flow's rate is
// recomputed by water-filling, so a lone transfer gets the full
// capacity and n equal transfers each get capacity/n (or their cap,
// whichever is lower).
type oracleLink struct {
	sim      *Sim
	capacity float64 // bytes/sec; <= 0 means unlimited
	flows    map[*oracleFlow]struct{}
	joins    uint64

	// stats
	bytesMoved   float64
	transfersRun int64
}

type oracleFlow struct {
	remaining float64
	bytes     int64
	cap       float64 // per-flow cap; <= 0 means none
	rate      float64
	last      time.Duration
	seq       uint64 // join order
	proc      *Proc  // woken when the flow finishes, or
	done      func() // scheduled then, for TransferAsync
	doneEv    Event
	finished  bool
}

// newOracleLink returns a link with the given capacity in bytes/second.
// capacity <= 0 means the link is unlimited and only per-flow caps (if
// any) constrain transfers.
func newOracleLink(s *Sim, capacity float64) *oracleLink {
	return &oracleLink{
		sim:      s,
		capacity: capacity,
		flows:    make(map[*oracleFlow]struct{}),
	}
}

// Capacity reports the configured capacity (<= 0 for unlimited).
func (l *oracleLink) Capacity() float64 { return l.capacity }

// ActiveFlows reports the number of in-flight transfers.
func (l *oracleLink) ActiveFlows() int { return len(l.flows) }

// BytesMoved reports the total bytes completed over the link.
func (l *oracleLink) BytesMoved() float64 { return l.bytesMoved }

// Transfers reports the number of completed transfers.
func (l *oracleLink) Transfers() int64 { return l.transfersRun }

// Transfer moves bytes over the link, blocking p for the modeled
// duration. flowCap (> 0) additionally caps this flow's rate, e.g. to
// model a single TCP connection's ceiling. Zero-byte transfers return
// immediately.
func (l *oracleLink) Transfer(p *Proc, bytes int64, flowCap float64) {
	if bytes <= 0 {
		return
	}
	f := l.join(bytes, flowCap)
	f.proc = p
	for !f.finished {
		p.Park()
	}
}

// TransferAsync is Transfer ending in a callback: done is scheduled at
// the instant the bytes have moved, at once for zero bytes.
func (l *oracleLink) TransferAsync(bytes int64, flowCap float64, done func()) {
	if bytes <= 0 {
		l.sim.Schedule(l.sim.Now(), done)
		return
	}
	l.join(bytes, flowCap).done = done
}

// join adds a flow, next in join order, and reshares.
func (l *oracleLink) join(bytes int64, flowCap float64) *oracleFlow {
	f := &oracleFlow{
		remaining: float64(bytes),
		bytes:     bytes,
		cap:       flowCap,
		last:      l.sim.Now(),
		seq:       l.joins,
	}
	l.joins++
	l.flows[f] = struct{}{}
	l.reshare()
	return f
}

// advance progresses every flow's remaining byte count to the current
// virtual time at its previous rate.
func (l *oracleLink) advance() {
	now := l.sim.Now()
	for f := range l.flows {
		if math.IsInf(f.rate, 1) {
			// An uncapped flow on an unlimited link completes
			// instantly regardless of elapsed time.
			f.remaining = 0
			f.last = now
			continue
		}
		elapsed := (now - f.last).Seconds()
		if elapsed > 0 && f.rate > 0 {
			f.remaining -= elapsed * f.rate
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.last = now
	}
}

// reshare recomputes fair-share rates and (re)schedules every flow's
// completion event. Must be called after advance-worthy membership
// changes; it advances first.
func (l *oracleLink) reshare() {
	l.advance()
	if len(l.flows) == 0 {
		return
	}
	ordered := make([]*oracleFlow, 0, len(l.flows))
	for f := range l.flows {
		ordered = append(ordered, f)
	}
	// Deterministic order: completion scheduling order must not depend
	// on map iteration. Sort by remaining bytes, then by join order.
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].remaining != ordered[j].remaining {
			return ordered[i].remaining < ordered[j].remaining
		}
		return ordered[i].seq < ordered[j].seq
	})
	caps := make([]float64, len(ordered))
	for i, f := range ordered {
		if f.cap > 0 {
			caps[i] = f.cap
		} else {
			caps[i] = math.Inf(1)
		}
	}
	rates := oracleWaterfill(l.capacity, caps)
	for i, f := range ordered {
		f.rate = rates[i]
		f.doneEv.Cancel()
		f.doneEv = Event{}
		if f.remaining <= 0.5 || math.IsInf(f.rate, 1) {
			ff := f
			f.doneEv = l.sim.Schedule(l.sim.Now(), func() { l.finish(ff) })
			continue
		}
		if f.rate <= 0 {
			// No capacity at all: leave the flow parked; a later
			// membership change will reshare. This only happens with
			// capacity so oversubscribed by caps that waterfill
			// assigned zero, which validated configs cannot produce.
			continue
		}
		// Round up so sub-nanosecond residues still make progress;
		// otherwise a tiny transfer at a huge rate reschedules itself
		// at the same instant forever.
		d := time.Duration(math.Ceil(f.remaining / f.rate * float64(time.Second)))
		if d < time.Nanosecond {
			d = time.Nanosecond
		}
		ff := f
		f.doneEv = l.sim.After(d, func() { l.finish(ff) })
	}
}

func (l *oracleLink) finish(f *oracleFlow) {
	if f.finished {
		return
	}
	// Self-correct rounding: if the flow is not actually done, advance
	// and reschedule everyone.
	l.advance()
	if f.remaining > 0.5 {
		l.reshare()
		return
	}
	f.finished = true
	f.doneEv = Event{}
	delete(l.flows, f)
	l.bytesMoved += float64(f.bytes)
	l.transfersRun++
	if f.proc != nil {
		f.proc.Wake()
	} else {
		l.sim.Schedule(l.sim.Now(), f.done)
	}
	l.reshare()
}

// oracleWaterfill computes max-min fair rates for flows with the given
// per-flow caps sharing total capacity. capacity <= 0 means unlimited
// (each flow simply gets its cap, or +Inf with no cap). The returned
// slice is parallel to caps.
func oracleWaterfill(capacity float64, caps []float64) []float64 {
	rates := make([]float64, len(caps))
	if len(caps) == 0 {
		return rates
	}
	if capacity <= 0 {
		copy(rates, caps)
		return rates
	}
	type idxCap struct {
		idx int
		cap float64
	}
	order := make([]idxCap, len(caps))
	for i, c := range caps {
		order[i] = idxCap{idx: i, cap: c}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].cap < order[j].cap })
	remaining := capacity
	left := len(order)
	for _, oc := range order {
		fair := remaining / float64(left)
		if oc.cap <= fair {
			rates[oc.idx] = oc.cap
			remaining -= oc.cap
		} else {
			rates[oc.idx] = fair
			remaining -= fair
		}
		left--
	}
	return rates
}
