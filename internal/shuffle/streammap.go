package shuffle

// The streaming map path: instead of buffering a mapper's whole ranged
// GET before the first byte is partitioned, the map slice is consumed
// as a stream of chunks (objectstore.Client.GetStream) by the lineReader
// every merged run is read with too (streamreduce.go): each chunk is
// charged its partition CPU as it lands and its complete lines are
// keyed into the runBuilder's index by where they sit in the read — the
// partial trailing line carried across the chunk boundary — so parsing,
// key packing and indexing overlap the remaining transfer. The reader
// keeps the chunks, and the lines are copied from them once, into the
// runs. A line that does not parse fails the slice after its chunk's
// charge. The one radix sort of the slice's index and its cut into runs
// (runBuilder.finish) are the only post-transfer work, matching the
// planner's overlap model max(transfer, partitionCPU) + sort.

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// mapSortShare is the fraction of the map phase's lumped CPU budget
// spent in the post-stream radix sort of the slice's index and its cut
// into runs — the one leg that cannot overlap the transfer because it
// needs every record indexed first. The remaining 4/5 is the per-chunk
// parse+index+append work, a 4:1 time split matching the data-plane
// benchmarks it was measured on (the radix finish ran ~4x faster than
// the full parse+route pass over the same bytes).
const mapSortShare = 0.2

// MapStreamRates splits the lumped partition throughput (the
// calibrated "parse + route + serialize + sort" rate specs and
// profiles carry) into the streaming and post-stream legs:
// 1/partitionBps = 1/streamBps + 1/sortBps, with the sort taking
// mapSortShare of the total time. Shared by the execution path and
// every predictor, so the modeled overlap and the simulated overlap
// agree by construction.
func MapStreamRates(partitionBps float64) (streamBps, sortBps float64) {
	if partitionBps <= 0 {
		return 0, 0
	}
	return partitionBps / (1 - mapSortShare), partitionBps / mapSortShare
}

// errLineTooLong reports an input line a mapper owns but could not
// read to its end: it runs more than Overscan bytes past the mapper's
// slice, so the ranged read stopped inside it.
type errLineTooLong struct {
	// Offset is where the line starts in the input object.
	Offset int64
	// Overscan is how far past its slice a mapper reads.
	Overscan int64
}

func (e *errLineTooLong) Error() string {
	return fmt.Sprintf("line at offset %d runs more than the %d-byte overscan past its map slice", e.Offset, e.Overscan)
}

// feedSlice hands add the lines of a map slice that are the mapper's
// own, read off r, each with the offset it starts at and whether it is
// the unterminated tail of the read: those starting below limit, blank
// ones skipped. The read begins one byte before the slice when skipFirst
// is set, and everything up to that byte's newline is the predecessor's
// line; it runs on through the overscan, and stops at the first line
// starting at or past limit. add must not retain the line past its call.
func feedSlice(r *lineReader, skipFirst bool, limit, end int64, add func(line []byte, start int64, tail bool) error) error {
	for {
		line, start, tail, err := r.next()
		switch {
		case err != nil:
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		case skipFirst:
			if tail {
				// The whole read was one line with no start inside the slice.
				return errNoLineStart
			}
			skipFirst = false
		case start >= limit:
			return nil // every owned line is in; abandon the rest of the range
		case tail && start+int64(len(line)) < end:
			// The read ended before the object did (end is its size): the
			// tail is the head of a line the overscan cut short, not the
			// file's last line.
			return &errLineTooLong{Offset: start, Overscan: overscan}
		case !bed.IsBlank(line):
			if err := add(line, start, tail); err != nil {
				return err
			}
		}
	}
}

// span returns the byte range a task reads of its slice [off, off+n):
// one byte before the slice (to decide first-line ownership) through
// the overscan that completes its final line, clipped to the object.
func (t *task) span(off, n int64) (readOff, readLen int64, prefixByte bool) {
	readOff = off
	if readOff > 0 {
		readOff--
		prefixByte = true
	}
	readLen = off + n + overscan - readOff
	if size := t.j.size; readOff+readLen > size {
		readLen = size - readOff
	}
	return readOff, readLen, prefixByte
}

// readSlice streams the slice [off, off+n) into a runBuilder (indexSlice),
// charging the per-chunk partition CPU (at the wave's streaming rate) as
// each chunk lands and the post-stream sort once the transfer is done.
// It returns the finished sorted runs, copied once from the chunks the
// reader kept, or nil when the object is a timing-only payload (the
// caller writes even-split sized runs; the CPU has already been charged
// either way). Its stream is a read set of one, as a reducer's streams.
func (t *task) readSlice(ctx *faas.Ctx, off, n int64) ([][]byte, error) {
	readOff, readLen, _ := t.span(off, n)
	chunk := AdaptiveChunkBytes(t.j.spec.StreamChunkBytes, n)
	set := readSets.Take(1)
	opened, err := ctx.Store.GetStreams(ctx.Proc, set.streams, t.j.spec.InputBucket, t.j.inKey[:], readOff, readLen,
		objectstore.StreamOptions{ChunkBytes: chunk})
	set.srcs, set.streams = set.srcs[:opened], set.streams[:1]
	defer set.close()
	if err != nil {
		return nil, err
	}

	// Charging the slice's n bytes alone keeps the total partition
	// charge at exactly the slice over PartitionBps — overscan bytes are
	// transferred but their lines belong to the next mapper.
	wv := t.wave()
	m := &meter{p: ctx.Proc, clock: ctx, bps: wv.streamBps, left: n}
	r := &lineReader{src: set.srcs[0], m: m, pos: readOff, keep: int((readLen + chunk - 1) / chunk)}
	builder, err := t.indexSlice(r, off, n)
	sized := errors.Is(err, errSizedChunk)
	if sized {
		_, err = m.drain(set.srcs[0], nil)
	}
	if err != nil {
		return nil, err
	}
	// The sort and the cut are the only post-transfer work.
	ctx.ComputeBytes(n, wv.sortBps)
	switch {
	case sized:
		return nil, nil
	case builder.fanOut == 0:
		// Real bytes with no line of the mapper's own: every run empty.
		return make([][]byte, wv.fanOut), nil
	}
	return builder.finish(r.span()), nil
}

// indexSlice feeds the task's own lines of [off, off+n), read off r from
// the start of the task's read (span) on, into a runBuilder, each by its
// offset in the read. The builder is made at the first line, its index
// reserved from the lines of the chunk that line came from, so a
// timing-only slice, whose first chunk has no lines, builds none (its
// fanOut is 0). r must keep its chunks: the builder is finished with
// r.span().
func (t *task) indexSlice(r *lineReader, off, n int64) (runBuilder, error) {
	readOff, readLen, prefixByte := t.span(off, n)
	var b runBuilder // fanOut 0 until made
	err := feedSlice(r, prefixByte, off+n, t.j.size, func(line []byte, start int64, tail bool) error {
		if b.fanOut == 0 {
			chunk, _ := r.kept[len(r.kept)-1].Bytes()
			var err error
			if b, err = newRunBuilder(t.wave().fanOut, t.bounds(), readLen, lineHint(chunk, n)); err != nil {
				return err
			}
		}
		return b.addLine(line, int(start-readOff), !tail)
	})
	return b, err
}

// lineHint guesses how many lines n bytes hold from the newlines of
// chunk, with a sixteenth to spare. A slice whose lines run shorter than
// its first chunk's grows its index past the guess by append.
func lineHint(chunk []byte, n int64) int {
	lines := int64(bytes.Count(chunk, []byte{'\n'})) + 1
	guess := lines * n / int64(len(chunk)+1)
	return int(guess + guess/16 + 16)
}
