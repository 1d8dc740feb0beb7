package des

import "time"

// This file is the kernel's event queue as it stood when every event,
// due now or later, went through one heap and a moved event was a
// Cancel and a fresh Schedule: Schedule, Cancel, the heap, compaction,
// the event loop and the horizon clamp, kept as they were (names
// prefixed) with the process machinery left out. It is the oracle the
// order tests in kernel_order_test.go drive the production Sim against:
// change the queue's order on purpose and this file is what tells you
// every fired event, clock reading and pending count that moved.
//
// It is also the lazy-cancel reference. The production heap takes a
// canceled entry out where it sits; here Cancel only marks the entry,
// the loop skips it when it comes to the top and a Floyd re-heapify
// sweeps the heap once the dead outnumber the live. Two independent
// ways to cancel must fire the same events in the same order.

type oracleSim struct {
	now   time.Duration
	seq   int64
	limit time.Duration

	heap     []heapEnt
	slots    []oracleSlot
	free     []int32
	canceled int // dead entries still on the heap

	err error

	MaxEvents int64
	fired     int64
}

type oracleSlot struct {
	fire     func()
	at       time.Duration
	gen      uint32
	canceled bool
}

type oracleEvent struct {
	s    *oracleSim
	slot int32
	gen  uint32
}

func (e oracleEvent) Cancel() {
	if e.s == nil {
		return
	}
	sl := &e.s.slots[e.slot]
	if sl.gen != e.gen || sl.canceled {
		return
	}
	sl.canceled = true
	e.s.canceled++
	e.s.maybeCompact()
}

func (e oracleEvent) pending() bool {
	if e.s == nil {
		return false
	}
	sl := &e.s.slots[e.slot]
	return sl.gen == e.gen && !sl.canceled
}

func (s *oracleSim) Now() time.Duration { return s.now }

func (s *oracleSim) Fired() int64 { return s.fired }

func (s *oracleSim) Pending() int { return len(s.heap) - s.canceled }

func (s *oracleSim) Schedule(at time.Duration, fn func()) oracleEvent {
	if at < s.now {
		at = s.now
	}
	s.seq++
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slots) >= 1<<slotBits {
			panic("des: over 16M concurrently pending events")
		}
		s.slots = append(s.slots, oracleSlot{})
		slot = int32(len(s.slots) - 1)
	}
	sl := &s.slots[slot]
	sl.fire = fn
	sl.at = at
	sl.canceled = false
	s.push(heapEnt{at: at, key: s.seq<<slotBits | int64(slot)})
	return oracleEvent{s: s, slot: slot, gen: sl.gen}
}

func (s *oracleSim) freeSlot(slot int32) {
	sl := &s.slots[slot]
	sl.fire = nil
	sl.gen++
	s.free = append(s.free, slot)
}

func (s *oracleSim) push(ent heapEnt) {
	s.heap = append(s.heap, ent)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !entLess(ent, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

func (s *oracleSim) popTop() {
	h := s.heap
	n := len(h) - 1
	if n == 0 {
		s.heap = h[:0]
		return
	}
	tail := h[n]
	h = h[:n]
	s.heap = h
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, min := c, h[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if a := h[j]; entLess(a, min) {
				m, min = j, a
			}
		}
		h[i] = min
		i = m
	}
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(tail, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = tail
}

func (s *oracleSim) siftDown(i int, ent heapEnt) {
	h := s.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[m]) {
				m = j
			}
		}
		if !entLess(h[m], ent) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ent
}

func (s *oracleSim) maybeCompact() {
	if s.canceled < 64 || s.canceled*2 < len(s.heap) {
		return
	}
	kept := s.heap[:0]
	for _, ent := range s.heap {
		if slot := ent.slot(); s.slots[slot].canceled {
			s.slots[slot].canceled = false
			s.freeSlot(slot)
			continue
		}
		kept = append(kept, ent)
	}
	s.heap = kept
	s.canceled = 0
	if len(kept) > 1 {
		for i := (len(kept) - 2) >> 2; i >= 0; i-- {
			s.siftDown(i, kept[i])
		}
	}
}

// RunUntil is the production RunUntil with no processes: drive, then
// stop. A drained heap is nil here; whoever keeps processes beside the
// oracle decides whether that is a deadlock.
func (s *oracleSim) RunUntil(limit time.Duration) error {
	s.limit = limit
	s.drive()
	return s.stop()
}

func (s *oracleSim) drive() {
	defer func() {
		if r := recover(); r != nil && s.err == nil {
			s.err = &PanicError{Proc: callbackPanic, Value: r}
		}
	}()
	limit := s.limit
	for len(s.heap) > 0 && s.err == nil {
		top := s.heap[0]
		slot := top.slot()
		sl := &s.slots[slot]
		if sl.canceled {
			s.popTop()
			sl.canceled = false
			s.canceled--
			s.freeSlot(slot)
			continue
		}
		if limit >= 0 && top.at > limit {
			return
		}
		if s.MaxEvents > 0 && s.fired >= s.MaxEvents {
			return
		}
		fn := sl.fire
		s.popTop()
		s.freeSlot(slot)
		s.fired++
		s.now = top.at
		fn()
	}
}

func (s *oracleSim) stop() error {
	switch {
	case s.err != nil:
		return s.err
	case len(s.heap) == 0:
		return nil
	}
	if s.limit >= 0 && s.heap[0].at > s.limit {
		s.now = s.limit
	}
	return ErrSimLimit
}
