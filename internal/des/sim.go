// Package des implements a deterministic discrete-event simulation
// kernel used as the substrate for the simulated cloud (object storage,
// FaaS platform, and VM provisioner).
//
// A Sim owns a virtual clock and its event queues. Simulated activities
// run as processes (Proc): ordinary Go functions executing on
// goroutines, but scheduled cooperatively so that exactly one process
// runs at any instant. All ordering is decided by the events' (virtual
// time, then FIFO sequence), which makes runs fully deterministic
// regardless of the Go scheduler.
//
// There is no scheduler goroutine. Exactly one goroutine at a time
// holds the baton: Run's caller at the start, then whichever process
// is running. A process that suspends (Sleep, Park, a Resource, a
// Link) or finishes runs the event loop itself, on its own goroutine,
// firing events until one of them activates a process; it then hands
// the baton straight to that process and blocks, or simply carries on
// if the process is itself. Scheduled callbacks therefore run on
// whichever goroutine holds the baton and must not block. When the
// run has to stop (queues drained, horizon, MaxEvents, a panic) the
// baton goes back to Run's caller, which alone decides the outcome
// and unwinds what is left.
//
// Because only the baton holder runs, simulation-side data structures
// (the object store's buckets, platform meters, ...) need no locking;
// that invariant is relied upon throughout the repository. The channel
// handoff that passes the baton is also what orders one holder's
// writes before the next holder's reads.
//
// The kernel is built for million-event runs. Events wait in one of two
// queues: an event scheduled for the instant being fired (or clamped to
// it) joins a FIFO ring, every later one a concrete 4-ary min-heap over
// inline (time, seq, slot) records. The loop fires the heap's entries
// due now before the ring's, which is (at, seq) order: a heap entry due
// now was scheduled at an earlier instant, so its seq is below every
// ring entry's. Event state lives in a slot table recycled through a
// free list, and handles carry a generation so a stale Cancel after
// slot reuse is a no-op. Schedule and fire are allocation-free in
// steady state. Each slot records where its entry sits in the heap,
// kept at every sift step, so Cancel takes a heap entry out where it
// sits and move gives it another instant there: the heap holds live
// entries only. A ring entry's Cancel marks it dead and the loop skips
// it; the ring drains within its instant, so its dead never pile up.
//
// A process's wake events name the process in their slots instead of
// holding a closure, so a Spawn allocates the Proc alone (on a goroutine
// a finished process left idle, at most 256 kept), and a numbered
// process's name is formatted only when a deadlock or panic report
// reads it. A panic in a scheduled callback is a *PanicError naming
// "(event callback)", with every process unwound, oldest first.
//
// Every waiting primitive has a callback form, scheduled exactly where
// the wake of a process in its place would have gone:
// Resource.AcquireAsync, TokenBucket.TakeAsync (the one way to take a
// token) and Link.TransferAsync. A chain of them working for one process
// (a store or cache request, a timing-only drain) runs from Proc.Await
// with the process parked once, and its last waits are the process's
// own wakes (WakeAfter, Link.Start): a process killed at a RunUntil
// horizon takes its chain with it, and a grant to a process that is
// Gone ends the chain. Proc.Fan is the one fan-out: n children in the
// caller's scope, the caller parked until all have returned.
//
// Every simulated byte crosses a Link, which keeps one completion event
// for all its flows. Flows that tie exactly on remaining bytes finish in
// the order they joined: no process's or stream's name orders the
// simulation. Usage is charged through scopes (scope.go): a Ledger
// charges the total and the innermost open scope of the process it
// serves.
//
// The old forms are kept as test oracles: TestKernelOrderMatchesOracle
// and FuzzKernelOrder hold event order to a heap-only kernel that
// cancels lazily, TestLinkDifferential the link to its per-flow-event
// form, and testdata/kernel_trace.golden, recorded before the baton, what
// a mixed workload fires.
package des

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// ErrSimLimit is returned by Run when the event or time limit
// configured on the Sim is exceeded before the simulation drains.
var ErrSimLimit = errors.New("des: simulation limit exceeded")

// DeadlockError reports that the event queues drained while processes
// were still parked, i.e. no future event could ever wake them.
type DeadlockError struct {
	// Parked lists the names of the processes left waiting.
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("des: deadlock, %d process(es) parked: %s",
		len(e.Parked), strings.Join(e.Parked, ", "))
}

// PanicError wraps a panic raised inside a simulated process or a
// scheduled callback.
type PanicError struct {
	// Proc is the name of the process that panicked, or
	// "(event callback)" when a Schedule'd function did: callbacks run
	// on whichever process goroutine holds the baton, and that process
	// is not to blame.
	Proc string
	// Value is the recovered panic value.
	Value any
}

// callbackPanic is PanicError.Proc for a panic in a scheduled callback.
const callbackPanic = "(event callback)"

func (e *PanicError) Error() string {
	if e.Proc == callbackPanic {
		return fmt.Sprintf("des: event callback panicked: %v", e.Value)
	}
	return fmt.Sprintf("des: process %q panicked: %v", e.Proc, e.Value)
}

// Event is a cancelable handle to a scheduled occurrence. It is a
// small value (not a pointer into kernel state): holding one after the
// event fired or was canceled is safe, and operations on such a stale
// handle are no-ops — the slot it referenced may have been recycled,
// which the handle detects by generation mismatch. The zero Event is
// valid and refers to nothing.
type Event struct {
	s    *Sim
	slot int32
	gen  uint32
}

// Cancel prevents a pending event from firing. Canceling an event that
// already fired (or was already canceled), or a zero Event, is a no-op
// — even if the underlying slot has since been reused for a different
// event.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	s := e.s
	sl := &s.slots[e.slot]
	if sl.gen != e.gen || sl.pos == posDead {
		return
	}
	if sl.pos >= 0 {
		s.remove(int(sl.pos))
		return
	}
	sl.pos = posDead
	s.canceled++
}

// At reports the virtual time the event is scheduled for; zero if the
// handle is stale (the event fired or was canceled). Note the zero
// return is ambiguous for an event legitimately scheduled at virtual
// time zero — a caller that must distinguish the two should consult
// the handle before the simulation first advances, or track liveness
// itself.
func (e Event) At() time.Duration {
	if e.s == nil {
		return 0
	}
	sl := &e.s.slots[e.slot]
	if sl.gen != e.gen || sl.pos == posDead {
		return 0
	}
	return sl.at
}

// pending reports whether the handle still refers to a live scheduled
// event.
func (e Event) pending() bool {
	if e.s == nil {
		return false
	}
	sl := &e.s.slots[e.slot]
	return sl.gen == e.gen && sl.pos != posDead
}

// eventSlot is the kernel-side state of one scheduled event. Slots are
// recycled through the free list; gen increments at every free so
// handles minted for the previous tenant go stale. An event either runs
// fire or, when proc is set, activates that process.
type eventSlot struct {
	fire func()
	proc *Proc
	at   time.Duration
	gen  uint32
	// pos is the entry's index in the heap, posRing while it waits in
	// the ring, or posDead once canceled there.
	pos int32
}

// The ring entries' positions: a canceled heap entry leaves the heap at
// once, so only a ring entry is ever dead.
const (
	posRing int32 = -1
	posDead int32 = -2
)

// heapEnt is one inline entry of the 4-ary min-heap: the scheduled
// time plus a packed (seq << slotBits | slot) word. Sixteen bytes per
// entry means four children share a cache line, which is most of what
// makes the 4-ary sift fast. Comparing the packed word compares seq
// first — each event's seq is unique, so the slot bits never influence
// the order — preserving FIFO among same-instant events.
type heapEnt struct {
	at  time.Duration
	key int64
}

// slotBits bounds the slot table at 16.7M concurrently pending events
// (two orders of magnitude past the 10k-worker scenarios, whose heaps
// run ~100k) while leaving seq 2^39 ≈ 550 billion lifetime events.
const slotBits = 24

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

func (e heapEnt) slot() int32 { return keySlot(e.key) }

func keySlot(key int64) int32 { return int32(key & (1<<slotBits - 1)) }

// ring is the FIFO of events due at the current instant: packed (seq,
// slot) keys, in the order they were scheduled. Its length is a power
// of two, so a position wraps with a mask; it doubles when full.
type ring struct {
	buf  []int64
	head int
	n    int
}

func (r *ring) push(key int64) {
	if r.n == len(r.buf) {
		grown := make([]int64, max(2*len(r.buf), 64))
		for i := 0; i < r.n; i++ {
			grown[i] = r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = key
	r.n++
}

// at returns the i-th key from the front.
func (r *ring) at(i int) int64 { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring) pop() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// Sim is a discrete-event simulation. The zero value is not usable;
// construct with New.
type Sim struct {
	now time.Duration
	seq int64
	rng *rand.Rand

	// Live processes in spawn order (an intrusive list through
	// Proc.prevLive/nextLive), which is the order killLive unwinds them.
	liveHead, liveTail *Proc
	// next is the process the event just fired activated: the event
	// loop returns it to whoever is driving, who hands it the baton.
	next *Proc
	// stopped returns the baton to Run's goroutine: the driver that
	// finds the run must stop, and each process killLive unwinds, sends
	// on it.
	stopped chan struct{}
	// limit is the horizon of the RunUntil in progress.
	limit time.Duration
	// idle holds the goroutines of finished processes for the next
	// Spawn, at most maxIdle of them; RunUntil releases them before it
	// returns.
	idle []*worker
	// handoffs counts baton passes between goroutines (see Handoffs).
	handoffs int64

	heap     []heapEnt
	due      ring // the events due at now, fired after the heap's
	slots    []eventSlot
	free     []int32
	canceled int // dead entries still in the ring

	running bool
	err     error

	// MaxEvents, when positive, bounds the number of events the run
	// loop will fire before returning ErrSimLimit. It is a safety net
	// against runaway simulations, not a scheduling feature.
	MaxEvents int64
	fired     int64
}

// New returns a Sim whose random source is seeded with seed. The same
// seed and workload produce identical traces.
func New(seed int64) *Sim {
	return &Sim{
		stopped: make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Now reports the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source, the one
// every Proc.Rand returns: a callback that draws from it takes the
// draw a process running in its place would have taken.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Fired reports the number of events fired so far: the simulation's
// own work metric, tracked by the scale experiments as events/sec.
func (s *Sim) Fired() int64 { return s.fired }

// Handoffs reports how many times the baton has passed from one
// goroutine to another: what a run pays in channel operations, where
// Fired counts what it computes. A process that suspends and is itself
// the next one activated costs none.
func (s *Sim) Handoffs() int64 { return s.handoffs }

// Pending reports the number of live (not canceled) events queued.
func (s *Sim) Pending() int { return len(s.heap) + s.due.n - s.canceled }

// Schedule registers fn to fire at virtual time at (clamped to now if
// in the past) and returns a cancelable handle. fn runs on the
// goroutine that holds the baton when its time comes (Run's caller or
// some process's) and must not block: it may Schedule, Cancel, Spawn
// and Wake, never Sleep or Park. A panic in fn stops the run with a
// *PanicError. Steady-state calls are allocation-free: the queue entry
// is inline and the event slot comes from the free list.
func (s *Sim) Schedule(at time.Duration, fn func()) Event {
	return s.schedule(at, fn, nil)
}

// schedule is Schedule for an event that runs fn, or activates p when p
// is not nil.
func (s *Sim) schedule(at time.Duration, fn func(), p *Proc) Event {
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
		s.slots = append(s.slots, eventSlot{})
		slot = int32(len(s.slots) - 1)
	}
	sl := &s.slots[slot]
	sl.fire, sl.proc = fn, p
	sl.at = at
	key := s.seq<<slotBits | int64(slot)
	if at == s.now {
		sl.pos = posRing
		s.due.push(key)
	} else {
		s.push(heapEnt{at: at, key: key})
	}
	return Event{s: s, slot: slot, gen: sl.gen}
}

// move is e.Cancel() followed by schedule(at, fn, p), with the same seq
// drawn and so the same place in the firing order, but done where the
// entry sits when e is pending on the heap and at is later than now:
// the entry takes the new time and seq and is sifted from its place,
// one sift where Cancel and Schedule take two. Otherwise (e fired, was
// canceled or waits in the ring, or at is now) it is exactly Cancel and
// schedule. Either way e goes stale and the returned handle is the
// event's.
func (s *Sim) move(e Event, at time.Duration, fn func(), p *Proc) Event {
	if e.s == s && at > s.now {
		if sl := &s.slots[e.slot]; sl.gen == e.gen && sl.pos >= 0 {
			s.seq++
			sl.fire, sl.proc = fn, p
			sl.at = at
			sl.gen++
			s.fix(int(sl.pos), heapEnt{at: at, key: s.seq<<slotBits | int64(e.slot)})
			return Event{s: s, slot: e.slot, gen: sl.gen}
		}
	}
	e.Cancel()
	return s.schedule(at, fn, p)
}

// After schedules fn to fire d from now.
func (s *Sim) After(d time.Duration, fn func()) Event {
	return s.Schedule(s.now+d, fn)
}

// freeSlot retires a slot back to the free list, bumping its
// generation so outstanding handles go stale.
func (s *Sim) freeSlot(slot int32) {
	sl := &s.slots[slot]
	sl.fire, sl.proc = nil, nil
	sl.gen++
	s.free = append(s.free, slot)
}

// push appends an entry and sifts it up the 4-ary heap.
func (s *Sim) push(ent heapEnt) {
	s.heap = append(s.heap, ent)
	s.siftUp(len(s.heap)-1, ent)
}

// remove takes the entry at index i off the heap and frees its slot:
// the tail fills the hole and is placed from there, up or down.
func (s *Sim) remove(i int) {
	s.freeSlot(s.heap[i].slot())
	n := len(s.heap) - 1
	tail := s.heap[n]
	s.heap = s.heap[:n]
	if i < n {
		s.fix(i, tail)
	}
}

// siftUp places ent at index i, walking it up past larger parents.
// Every write into the heap (here, in popTop and in siftDown) records
// the entry's new index in its slot, so a slot always knows where its
// entry sits.
func (s *Sim) siftUp(i int, ent heapEnt) {
	h, slots := s.heap, s.slots
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !entLess(ent, p) {
			break
		}
		h[i] = p
		slots[p.slot()].pos = int32(i)
		i = parent
	}
	h[i] = ent
	slots[ent.slot()].pos = int32(i)
}

// fix places ent, which replaces the entry at index i, wherever it
// belongs: up if it is less than its parent, down otherwise.
func (s *Sim) fix(i int, ent heapEnt) {
	if i > 0 && entLess(ent, s.heap[(i-1)>>2]) {
		s.siftUp(i, ent)
		return
	}
	s.siftDown(i, ent)
}

// popTop removes the minimum entry, restoring the heap property. It
// sifts the root hole all the way to a leaf choosing the minimum child
// at each level (child-child comparisons only — no compare against the
// displaced tail element, which almost always belongs near the bottom
// anyway), then sifts the tail up from that leaf, typically zero or
// one level. This "bounce" saves one comparison per level over the
// textbook sift-down on pop-heavy event loops.
func (s *Sim) popTop() {
	h := s.heap
	n := len(h) - 1
	if n == 0 {
		s.heap = h[:0]
		return
	}
	tail := h[n]
	h = h[:n]
	s.heap = h
	slots := s.slots
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Min of up to four children, the running min held in
		// registers so h[m] is never re-read.
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
		slots[min.slot()].pos = int32(i)
		i = m
	}
	s.siftUp(i, tail)
}

// siftDown places ent at index i, walking it down past smaller
// children. The 4-way fan-out halves the tree depth of a binary heap,
// trading two extra comparisons per level for half the cache-missing
// level hops — the winning trade for pop-heavy event loops.
func (s *Sim) siftDown(i int, ent heapEnt) {
	h, slots := s.heap, s.slots
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
		slots[h[i].slot()].pos = int32(i)
		i = m
	}
	h[i] = ent
	slots[ent.slot()].pos = int32(i)
}

// Run drives the simulation until the event queues drain, a limit is
// hit, or a process or callback panics. It returns nil on a clean
// drain with no live processes, a *DeadlockError if processes were left
// parked, a *PanicError on a panic, or ErrSimLimit.
//
// Whatever the outcome, no process goroutines survive Run: on error
// paths every suspended process is unwound, in spawn order, before Run
// returns, and the idle goroutines kept for reuse are released.
func (s *Sim) Run() error {
	return s.RunUntil(-1)
}

// RunUntil is Run with a horizon: events scheduled after limit are not
// fired and ErrSimLimit is returned. A negative limit means no
// horizon. Events beyond the horizon stay queued — a later
// RunUntil with a larger limit (or Run) picks up exactly where this
// one stopped — though processes parked at the horizon are unwound,
// per the no-surviving-goroutines contract.
func (s *Sim) RunUntil(limit time.Duration) error {
	if s.running {
		return errors.New("des: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()

	s.limit = limit
	if p := s.drive(); p != nil {
		s.handoff(p)
		<-s.stopped
	}
	err := s.stop()
	for _, w := range s.idle {
		w.resume <- struct{}{} // no proc assigned: the goroutine exits
	}
	s.idle = s.idle[:0]
	return err
}

// drive is the event loop. Whoever holds the baton calls it: RunUntil
// first, then every process that suspends or finishes. It fires events
// in (at, seq) order until one activates a process, which it returns
// for the caller to hand the baton to (or to carry on as, if it is the
// caller itself), or until the run must stop, when it returns nil and
// leaves the reason for stop to work out. The next event is the heap's
// top when that is due now or the ring is empty, else the ring's head;
// the clock moves only once the ring has drained.
func (s *Sim) drive() (next *Proc) {
	// A callback cannot suspend, so the stack here is never deeper than
	// suspend -> drive -> callback and one recover covers them all.
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic(callbackPanic, r)
			next = nil
		}
	}()
	limit := s.limit
	for s.err == nil {
		var slot int32
		at := s.now
		fromHeap := len(s.heap) > 0 && (s.due.n == 0 || s.heap[0].at <= at)
		switch {
		case fromHeap:
			slot, at = s.heap[0].slot(), s.heap[0].at
		case s.due.n > 0:
			slot = keySlot(s.due.at(0))
		default:
			return nil
		}
		sl := &s.slots[slot]
		dead := sl.pos == posDead
		if !dead {
			if limit >= 0 && at > limit {
				// Beyond the horizon: leave the event in place for a
				// future run rather than dropping it.
				return nil
			}
			if s.MaxEvents > 0 && s.fired >= s.MaxEvents {
				return nil
			}
		}
		if fromHeap {
			s.popTop()
		} else {
			s.due.pop()
		}
		if dead {
			s.canceled--
			s.freeSlot(slot)
			continue
		}
		fn, proc := sl.fire, sl.proc
		// Free before firing: fn may Schedule (reusing this slot for a
		// new event) or Cancel its own handle (stale by generation).
		s.freeSlot(slot)
		s.fired++
		s.now = at
		if proc != nil {
			proc.activate()
		} else {
			fn()
		}
		if p := s.next; p != nil {
			s.next = nil
			return p
		}
	}
	return nil
}

// stop runs on Run's goroutine once drive has returned nil somewhere:
// it works out why, unwinds every live process and builds the error.
// drive drops canceled entries before it looks at the horizon, so the
// event it stopped at is live: due now if the ring holds any (the run
// stopped in the middle of an instant), else the heap's top.
func (s *Sim) stop() error {
	switch {
	case s.err != nil:
		s.killLive()
		return s.err
	case len(s.heap) == 0 && s.due.n == 0:
		if s.liveHead == nil {
			return nil
		}
		// The queues drained, so no wake event exists for any live
		// process: every one of them is parked forever.
		var names []string
		for p := s.liveHead; p != nil; p = p.nextLive {
			names = append(names, p.name())
		}
		sort.Strings(names)
		s.killLive()
		return &DeadlockError{Parked: names}
	}
	next := s.now
	if s.due.n == 0 {
		next = s.heap[0].at
	}
	if s.limit >= 0 && next > s.limit {
		// Only a horizon the clock has already passed stops the run at
		// an event due now. The clock goes back to it, so the ring's
		// live events wait on the heap at the instant they are due.
		for ; s.due.n > 0; s.due.pop() {
			if key := s.due.at(0); s.slots[keySlot(key)].pos != posDead {
				s.push(heapEnt{at: s.now, key: key})
			} else {
				s.canceled--
				s.freeSlot(keySlot(key))
			}
		}
		s.now = s.limit
	}
	s.killLive()
	if s.err != nil {
		return s.err
	}
	return ErrSimLimit
}

// killLive unwinds every live process, oldest first, so its goroutine
// exits. Each suspended process is resumed with its killed flag set,
// which makes suspend panic with errKilled; the worker swallows that
// and reports back on s.stopped. Processes that were spawned but whose
// start event never fired are discarded without their body ever
// running. A deferred function in a victim may Spawn: the newcomer
// joins the tail of the list and is discarded in turn.
//
// A victim's pending wake event (a Sleep timer, a Wake, or the Spawn
// activation) must be canceled here: RunUntil leaves future events
// queued for resumption, and an orphaned activation firing on a
// later run would name a process whose goroutine is gone.
func (s *Sim) killLive() {
	for s.liveHead != nil {
		victim := s.liveHead
		victim.wake.Cancel()
		victim.wake = Event{}
		victim.killed = true
		victim.w.resume <- struct{}{}
		<-s.stopped
	}
}

func (s *Sim) recordPanic(name string, v any) {
	if s.err == nil {
		s.err = &PanicError{Proc: name, Value: v}
	}
}
