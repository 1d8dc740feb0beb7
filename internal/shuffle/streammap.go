package shuffle

// The streaming map path: instead of buffering a mapper's whole ranged
// GET before the first byte is partitioned, the map slice is consumed
// as a stream of chunks (objectstore.Client.GetStream) by the lineReader
// every merged run is read with too (streamreduce.go): each chunk is
// charged its partition CPU as it lands and its complete lines are fed
// into the runBuilder — the partial trailing line carried across the
// chunk boundary — so parsing, key packing, and partition routing
// overlap the remaining transfer. A line that does not parse fails the
// slice after its chunk's charge. The per-partition radix sort
// (runBuilder.finish) is the only post-transfer work, matching the
// planner's overlap model max(transfer, partitionCPU) + sort.

import (
	"errors"
	"fmt"
	"io"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// mapSortShare is the fraction of the map phase's lumped CPU budget
// spent in the post-stream radix sort of the partitions — the one leg
// that cannot overlap the transfer because it needs every record
// routed first. The remaining 4/5 is the per-chunk parse+route+append
// work, a 4:1 time split matching the measured data-plane benchmarks
// (the radix finish runs ~4x faster than the full parse+route pass
// over the same bytes).
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
// own, read off r: those starting below limit, blank ones skipped. The
// read begins one byte before the slice when skipFirst is set, and
// everything up to that byte's newline is the predecessor's line; it
// runs on through the overscan, and stops at the first line starting at
// or past limit. add must not retain the line past its call.
func feedSlice(r *lineReader, skipFirst bool, limit, end int64, add func(line []byte) error) error {
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
			if err := add(line); err != nil {
				return err
			}
		}
	}
}

// span returns the byte range a task actually reads of its input slice:
// one byte before the slice (to decide first-line ownership) through
// the overscan that completes its final line, clipped to the object.
func (t *task) span() (readOff, readLen int64, prefixByte bool) {
	readOff = t.off
	if readOff > 0 {
		readOff--
		prefixByte = true
	}
	readLen = t.off + t.n + overscan - readOff
	if readOff+readLen > t.size {
		readLen = t.size - readOff
	}
	return readOff, readLen, prefixByte
}

// readSlice streams the task's input slice into a runBuilder, charging
// the per-chunk partition CPU (at the wave's streaming rate) as each
// chunk lands and the post-stream sort once the transfer is done. It
// returns the finished sorted runs, or nil when the object is a
// timing-only payload (the caller writes even-split sized partitions;
// the CPU has already been charged either way). The builder and its
// fan-out of partitions are made at the first line to route, so a
// timing-only slice, whose first chunk has no lines, builds neither.
func (t *task) readSlice(ctx *faas.Ctx) ([][]byte, error) {
	readOff, readLen, prefixByte := t.span()
	st, err := ctx.Store.GetStream(ctx.Proc, t.inBucket, t.inKey, readOff, readLen,
		objectstore.StreamOptions{ChunkBytes: AdaptiveChunkBytes(t.chunkBytes, t.n)})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	// Charging the slice's t.n bytes alone keeps the total partition
	// charge at exactly the slice over PartitionBps — overscan bytes are
	// transferred but their lines belong to the next mapper.
	m := &meter{p: ctx.Proc, clock: ctx, bps: t.wave.streamBps, left: t.n}
	r := &lineReader{src: st, m: m, pos: readOff}
	var builder *runBuilder
	err = feedSlice(r, prefixByte, t.off+t.n, t.size, func(line []byte) error {
		if builder == nil {
			builder = newRunBuilder(t.wave.fanOut, t.bounds)
			builder.sizeHint(int(readLen))
		}
		return builder.addLine(line)
	})
	sized := errors.Is(err, errSizedChunk)
	if sized {
		_, err = m.drain(st, nil)
	}
	if err != nil {
		return nil, err
	}
	// The per-partition radix sort is the only post-transfer work.
	ctx.ComputeBytes(t.n, t.wave.sortBps)
	switch {
	case sized:
		return nil, nil
	case builder == nil:
		// Real bytes with no line of the mapper's own: every run empty.
		return make([][]byte, t.wave.fanOut), nil
	}
	return builder.finish(), nil
}
