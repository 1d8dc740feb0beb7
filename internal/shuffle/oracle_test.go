package shuffle

// Reference implementations the tests compare the streamed data plane
// against: the whole-buffer partitioner and the resident-run k-way
// merges that production ran before every read became a chunked stream
// (feedSlice and streamCursor over a lineReader, runSplitter). Nothing
// outside tests calls them; they are kept because they are simple
// enough to trust.

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// partitionRaw splits the lines of raw owned by the slice
// [offset, offset+length) into one sorted run per reducer, routing
// each record by its binary sort key against the boundaries.
// prefixByte reports that raw begins one byte before offset (to decide
// first-line ownership).
func partitionRaw(raw []byte, prefixByte bool, offset, length int64, workers int, boundaries []boundary) ([][]byte, error) {
	// Determine the first line that starts within [offset, offset+length).
	start := 0
	if prefixByte {
		if raw[0] == '\n' {
			start = 1 // a line starts exactly at offset: ours
		} else {
			nl := bytes.IndexByte(raw, '\n')
			if nl < 0 {
				return nil, errNoLineStart
			}
			start = nl + 1
		}
	}
	// Lines whose start position (global) is < offset+length are ours.
	globalStart := func(local int) int64 {
		off := offset
		if prefixByte {
			off--
		}
		return off + int64(local)
	}
	limit := offset + length

	builder, err := newRunBuilder(workers, boundaries, int64(len(raw)), len(raw)/32)
	if err != nil {
		return nil, err
	}
	pos := start
	for pos < len(raw) && globalStart(pos) < limit {
		at := pos
		nl := bytes.IndexByte(raw[pos:], '\n')
		var line []byte
		if nl < 0 {
			line = raw[pos:]
			pos = len(raw)
		} else {
			line = raw[pos : pos+nl]
			pos += nl + 1
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := builder.addLine(line, at, nl >= 0); err != nil {
			return nil, err
		}
	}
	return builder.finish(raw), nil
}

// partitionIndex returns the partition for a (key, chrom-name) pair
// given sorted boundaries: index i such that boundaries[i-1] <= key <
// boundaries[i], with keys equal to a boundary routed right — the
// binary-search equivalent of the legacy string search on key+"\x00".
// It routed every line of a mapper before one index was cut at the
// boundaries; the oracles route with it.
func partitionIndex[T bed.ChromName](key bed.Key, name T, boundaries []boundary) int {
	return sort.Search(len(boundaries), func(i int) bool {
		return bed.CompareKeyName(boundaries[i].Key, boundaries[i].Name, key, name) > 0
	})
}

// forEachLine calls fn for every non-blank line of raw with the offset
// it starts at and whether a '\n' ends it: what a runBuilder's addLine
// takes, over raw as its span.
func forEachLine(raw []byte, fn func(line []byte, off int, nl bool) error) error {
	for off := 0; off < len(raw); {
		line, nl := raw[off:], false
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, nl = line[:i], true
		}
		if len(bytes.TrimSpace(line)) > 0 {
			if err := fn(line, off, nl); err != nil {
				return err
			}
		}
		off += len(line) + 1
	}
	return nil
}

// runCursor walks one sorted run line by line during a merge.
type runCursor struct {
	data []byte  // unconsumed bytes
	line []byte  // current line, without newline
	key  bed.Key // current line's sort key
	idx  int     // run index, the deterministic tie-break
	live bool    // a current line is loaded
}

// advance loads the cursor's next non-blank line, verifying the run
// stays sorted (the mappers' invariant — a violation here means a
// corrupted scratch object, and silently merging it would emit
// unsorted output).
func (c *runCursor) advance() error {
	prevKey, prevLine, hadPrev := c.key, c.line, c.live
	c.live = false
	for len(c.data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(c.data, '\n'); nl < 0 {
			line, c.data = c.data, nil
		} else {
			line, c.data = c.data[:nl], c.data[nl+1:]
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		key, err := bed.KeyOfLine(line)
		if err != nil {
			return fmt.Errorf("run %d: %w", c.idx, err)
		}
		if hadPrev && compareLineKeys(key, line, prevKey, prevLine) < 0 {
			return fmt.Errorf("run %d is not sorted", c.idx)
		}
		c.line, c.key, c.live = line, key, true
		return nil
	}
	return nil
}

// cursorLess orders heap entries in exact genome order, then run index
// for deterministic merges.
func cursorLess(a, b *runCursor) bool {
	if c := compareLineKeys(a.key, a.line, b.key, b.line); c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}

// openRuns builds a cursor min-heap over the runs, returning the heap
// and the total input size. Exhausted-on-arrival runs (empty or
// blank-only) never enter the heap.
func openRuns(runs [][]byte) ([]*runCursor, int, error) {
	total := 0
	cursors := make([]runCursor, len(runs))
	h := make([]*runCursor, 0, len(runs))
	for i, run := range runs {
		total += len(run)
		c := &cursors[i]
		c.data, c.idx = run, i
		if err := c.advance(); err != nil {
			return nil, 0, err
		}
		if c.live {
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownFunc(h, i, cursorLess)
	}
	return h, total, nil
}

// mergeRuns streams k sorted runs into one globally sorted TSV buffer
// via a binary min-heap of per-run cursors, copying each winning line
// verbatim into the output. Peak memory is the runs plus one output
// buffer — no []bed.Record, no re-serialization, no full re-sort.
func mergeRuns(runs [][]byte) ([]byte, error) {
	h, total, err := openRuns(runs)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, total)
	for len(h) > 0 {
		c := h[0]
		out = append(out, c.line...)
		out = append(out, '\n')
		if err := c.advance(); err != nil {
			return nil, err
		}
		if !c.live {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDownFunc(h, 0, cursorLess)
		}
	}
	return out, nil
}

// mergeSplit streams the same k-way cursor merge, but routes each
// winning line to its boundary partition instead of one output: the
// hierarchical round-2 repartitioner's body. Because the merge emits
// lines in globally ascending key order, every partition is a sorted
// run by construction — no per-partition sort ever runs — and the
// routing cursor only moves right, so boundary search is O(1)
// amortized instead of a binary search per line. Partitions that
// receive nothing stay nil, matching runBuilder.finish.
func mergeSplit(runs [][]byte, workers int, bounds []boundary) ([][]byte, error) {
	h, total, err := openRuns(runs)
	if err != nil {
		return nil, err
	}
	parts := make([][]byte, workers)
	hint := 0
	if workers > 0 {
		hint = total/workers + total/(4*workers) // +25% for boundary skew
	}
	cur := 0
	for len(h) > 0 {
		c := h[0]
		// Advance past every boundary <= the emitted key (keys equal to
		// a boundary route right, as in partitionIndex).
		for cur < len(bounds) &&
			bed.CompareKeyName(bounds[cur].Key, bounds[cur].Name, c.key, chromOf(c.line)) <= 0 {
			cur++
		}
		if parts[cur] == nil {
			parts[cur] = make([]byte, 0, hint)
		}
		parts[cur] = append(parts[cur], c.line...)
		parts[cur] = append(parts[cur], '\n')
		if err := c.advance(); err != nil {
			return nil, err
		}
		if !c.live {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDownFunc(h, 0, cursorLess)
		}
	}
	return parts, nil
}

// siftDownFunc restores the min-heap property below i.
func siftDownFunc[T any](h []T, i int, less func(a, b T) bool) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && less(h[l], h[min]) {
			min = l
		}
		if r < len(h) && less(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
