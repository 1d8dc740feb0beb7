package lists

// Chunked is a log that only appends, kept in chunks that Flatten copies
// out once, where a slice would copy itself at every growth. The first
// chunk is made with room for First and grows as a slice up to Chunk,
// later ones with room for Chunk: First 0 costs a short log one slice.
type Chunked[T any] struct {
	Chunk, First int
	chunks       [][]T
}

// Add appends v.
func (l *Chunked[T]) Add(v T) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == l.Chunk {
		room := l.Chunk
		if n == 0 {
			room = l.First
		}
		l.chunks = append(l.chunks, make([]T, 0, room))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, v)
}

// Flatten returns the entries in order in a new slice, nil if none.
func (l *Chunked[T]) Flatten() []T {
	n := len(l.chunks)
	if n == 0 {
		return nil
	}
	out := make([]T, 0, (n-1)*l.Chunk+len(l.chunks[n-1]))
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}
