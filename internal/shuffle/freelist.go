package shuffle

import (
	"cmp"
	"slices"
	"sync"
)

// freeList holds storage nobody is using, smallest first by the room it
// has (size), for the next user in the process: the next mapper, the
// VM's sort, the next job, the next rig. Nothing empties it, so a GC
// between two sorts leaves them allocating the same bytes; and since a
// user takes free storage whenever there is some, the list never holds
// more than were in use at once. It never shrinks either: the process
// keeps its peak for life.
type freeList[T any] struct {
	mu   sync.Mutex
	list []T
	// size is the room v has; a zero T has none.
	size func(v T) int
	// fresh makes storage with room for n.
	fresh func(n int) T
}

// take returns storage with room for n: the smallest free one that has
// it, else a new one made in place of the largest free one, which the
// list gives up, so that it never grows past its peak. Of equal ones it
// takes the last, and put puts one after its equals, so that a list of
// one size (a sweep point's reducers) takes and puts at its tail and
// moves nothing.
func (l *freeList[T]) take(n int) T {
	var v T
	l.mu.Lock()
	if k := len(l.list); k > 0 {
		i := min(l.firstFit(n), k-1)
		i = l.firstFit(l.size(l.list[i])+1) - 1
		v = l.list[i]
		l.list = slices.Delete(l.list, i, i+1)
	}
	l.mu.Unlock()
	if l.size(v) < n {
		v = l.fresh(n)
	}
	return v
}

// put hands storage back to the list, ready for its next user.
func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	l.list = slices.Insert(l.list, l.firstFit(l.size(v)+1), v)
	l.mu.Unlock()
}

// firstFit returns where the first free storage with room for n sits.
func (l *freeList[T]) firstFit(n int) int {
	i, _ := slices.BinarySearchFunc(l.list, n, func(v T, n int) int { return cmp.Compare(l.size(v), n) })
	return i
}
