// Package lists holds containers that outlive a rig or a run: Free,
// storage for the process's next user, and Chunked, a log.
package lists

import (
	"cmp"
	"slices"
	"sync"
)

// Free holds storage nobody is using, smallest first by the room it has
// (Size), for the next user in the process: the next mapper, request,
// job or rig, so what goes on it keeps nothing of the rig it served.
// Nothing empties it, so a GC between two sorts leaves them allocating
// the same bytes; and since a user takes free storage whenever there is
// some, the list never holds more than were in use at once. It never
// shrinks either: the process keeps its peak for life.
type Free[T any] struct {
	// Size is the room v has.
	Size func(v T) int
	// Fresh makes storage with room for n.
	Fresh func(n int) T
	// Mu guards Items, the free storage (and a test reading it).
	Mu    sync.Mutex
	Items []T
}

// Take returns storage with room for n: the smallest free one that has
// it, else a new one made in place of the largest free one, which the
// list gives up, so that it never grows past its peak. Of equal ones it
// takes the last, and Put puts one after its equals, so that a list of
// one size (a sweep point's reducers, the request records) takes and
// puts at its tail and moves nothing.
func (l *Free[T]) Take(n int) T {
	l.Mu.Lock()
	if k := len(l.Items); k > 0 {
		i := min(l.firstFit(n), k-1)
		i = l.firstFit(l.Size(l.Items[i])+1) - 1
		v := l.Items[i]
		l.Items = slices.Delete(l.Items, i, i+1)
		if l.Size(v) >= n {
			l.Mu.Unlock()
			return v
		}
	}
	l.Mu.Unlock()
	return l.Fresh(n)
}

// Put hands storage back to the list, ready for its next user.
func (l *Free[T]) Put(v T) {
	l.Mu.Lock()
	l.Items = slices.Insert(l.Items, l.firstFit(l.Size(v)+1), v)
	l.Mu.Unlock()
}

// firstFit returns where the first free storage with room for n sits.
func (l *Free[T]) firstFit(n int) int {
	i, _ := slices.BinarySearchFunc(l.Items, n, func(v T, n int) int { return cmp.Compare(l.Size(v), n) })
	return i
}
