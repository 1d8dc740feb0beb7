package faas

import "github.com/faaspipe/faaspipe/internal/des"

// Future is the pending result of an asynchronous invocation.
type Future struct {
	done    bool
	out     any
	err     error
	waiters []*des.Proc
}

func newFuture() *Future {
	return &Future{}
}

func (f *Future) complete(out any, err error) {
	if f.done {
		return
	}
	f.done = true
	f.out = out
	f.err = err
	for _, w := range f.waiters {
		w.Wake()
	}
	f.waiters = nil
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
