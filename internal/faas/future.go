package faas

import (
	"errors"

	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/lists"
)

// Future is the pending result of an asynchronous invocation and the
// invocation's record. Invoke, MapSync and MapSpeculative put theirs
// back on futures once they and its process are done with it; one that
// InvokeAsync returns to any other caller stays valid for good.
type Future struct {
	done    bool
	out     any
	err     error
	waiters []*des.Proc

	// The invocation, which its process runs through runFn (run, bound
	// at the record's first use), and the holds left on the record.
	pf           *Platform
	h            Handler
	name         string
	input        any
	mem, retries int
	id           int64
	runFn        func(p *des.Proc)
	holds        int
}

// futures holds the records no invocation is using, each with its
// bound runFn and its waiters' room and nothing of its last rig.
var futures = lists.Free[*Future]{
	Size:  func(*Future) int { return 1 },
	Fresh: func(int) *Future { return &Future{} },
}

// run is the invocation's process: its attempts, a platform failure
// retried up to retries times after a doubling backoff, then its release.
func (f *Future) run(p *des.Proc) {
	var out any
	var err error
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		out, err = f.pf.attempt(p, f.h, f.name, f.input, f.mem, f.id)
		if !errors.Is(err, ErrInvocationFailed) || attempt >= f.retries {
			break
		}
		f.pf.meter.Charge(p, func(m *Meter) { m.Retries++ })
		p.Sleep(backoff)
		backoff *= 2
	}
	f.complete(out, err)
	f.release()
}

// release lets go of a hold. The last clears everything of the rig and
// puts the record back; a record with none is never put back.
func (f *Future) release() {
	if f.holds--; f.holds == 0 {
		*f = Future{waiters: f.waiters, runFn: f.runFn}
		futures.Put(f)
	}
}

func (f *Future) complete(out any, err error) {
	f.done, f.out, f.err = true, out, err
	for _, w := range f.waiters {
		w.Wake()
	}
	clear(f.waiters)
	f.waiters = f.waiters[:0]
}

// Done reports whether the result is available.
func (f *Future) Done() bool { return f.done }

// Result returns the completed future's value; it must only be called
// after Done reports true (checked waits use Wait instead).
func (f *Future) Result() (any, error) { return f.out, f.err }

// notify registers p to be woken when the future completes; no-op when
// already done. Used by multi-future waits (MapSpeculative); the waker
// may fire spuriously after the waiter moved on, which des primitives
// tolerate by rechecking their conditions.
func (f *Future) notify(p *des.Proc) {
	if !f.done {
		f.waiters = append(f.waiters, p)
	}
}

// Wait parks p until the result is available, then returns it.
func (f *Future) Wait(p *des.Proc) (any, error) {
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.Park()
	}
	return f.out, f.err
}
