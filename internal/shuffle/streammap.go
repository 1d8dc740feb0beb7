package shuffle

// The streaming map path: instead of buffering a mapper's whole ranged
// GET before the first byte is partitioned, the map slice is consumed
// as a stream of chunks (objectstore.Client.GetStream), each chunk's
// complete lines fed into the runBuilder as they arrive — with the
// partial trailing line carried across chunk boundaries — so parsing,
// key packing, and partition routing overlap the remaining transfer.
// The per-partition radix sort (runBuilder.Finish) is the only
// post-transfer work, matching the planner's overlap model
// max(transfer, partitionCPU) + sort.

import (
	"bytes"
	"errors"
	"fmt"
	"io"

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

// ErrLineTooLong reports an input line a mapper owns but could not
// read to its end: it runs more than Overscan bytes past the mapper's
// slice, so the ranged read stopped inside it.
type ErrLineTooLong struct {
	// Offset is where the line starts in the input object.
	Offset int64
	// Overscan is how far past its slice a mapper reads.
	Overscan int64
}

func (e *ErrLineTooLong) Error() string {
	return fmt.Sprintf("line at offset %d runs more than the %d-byte overscan past its map slice", e.Offset, e.Overscan)
}

// lineFeeder splits streamed chunks into complete lines and feeds the
// slice's owned ones to fn: lines whose global start position is inside
// [offset, limit) belong to this mapper; a partial trailing line is
// carried across chunk boundaries; blank lines are skipped; the
// unterminated final line (no trailing newline at the object's end) is
// flushed by finish. fn must not retain the line slice past its call.
type lineFeeder struct {
	fn    func(line []byte) error
	pos   int64 // global offset of the next unseen stream byte
	limit int64 // lines starting at or past this are the next mapper's
	end   int64 // the object's size: a stream that stops short of it was cut by the overscan
	// skipFirst drops bytes through the first newline: the stream
	// begins one byte before the slice to decide first-line ownership,
	// and everything up to that newline is the predecessor's line.
	skipFirst bool
	carry     []byte // partial line awaiting its terminator
	done      bool   // a line start at/past limit was seen: all owned lines are in
}

// feed consumes one chunk. After it returns with f.done set, the
// caller can stop reading the stream: every owned line has been fed.
func (f *lineFeeder) feed(chunk []byte) error {
	// Every line starting inside this chunk starts below the limit when
	// the chunk itself ends below it — the common case for all but a
	// mapper's final chunks — so the per-line ownership check can be
	// skipped wholesale.
	checkLimit := f.pos+int64(len(chunk)) > f.limit
	for len(chunk) > 0 && !f.done {
		if f.skipFirst {
			nl := bytes.IndexByte(chunk, '\n')
			if nl < 0 {
				f.pos += int64(len(chunk))
				return nil
			}
			f.pos += int64(nl) + 1
			chunk = chunk[nl+1:]
			f.skipFirst = false
			continue
		}
		nl := bytes.IndexByte(chunk, '\n')
		if nl < 0 {
			f.carry = append(f.carry, chunk...)
			f.pos += int64(len(chunk))
			return nil
		}
		if checkLimit && f.pos-int64(len(f.carry)) >= f.limit {
			f.done = true
			return nil
		}
		line := chunk[:nl]
		if len(f.carry) > 0 {
			f.carry = append(f.carry, chunk[:nl]...)
			line = f.carry
		}
		f.pos += int64(nl) + 1
		chunk = chunk[nl+1:]
		if len(bytes.TrimSpace(line)) != 0 {
			if err := f.fn(line); err != nil {
				return err
			}
		}
		if len(f.carry) > 0 {
			f.carry = f.carry[:0]
		}
	}
	return nil
}

// finish flushes the unterminated final line once the stream ends.
func (f *lineFeeder) finish() error {
	if f.skipFirst {
		// The whole stream was one line with no start inside the slice.
		return errNoLineStart
	}
	if f.done || len(f.carry) == 0 {
		return nil
	}
	start := f.pos - int64(len(f.carry))
	if start >= f.limit {
		return nil
	}
	if f.pos < f.end {
		// The stream ended before the object did: the carry is the head
		// of a line the overscan cut short, not the file's last line.
		return &ErrLineTooLong{Offset: start, Overscan: overscan}
	}
	line := f.carry
	f.carry = f.carry[:0]
	if len(bytes.TrimSpace(line)) == 0 {
		return nil
	}
	return f.fn(line)
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
// the CPU has already been charged either way).
func (t *task) readSlice(ctx *faas.Ctx) ([][]byte, error) {
	readOff, readLen, prefixByte := t.span()
	st, err := ctx.Store.GetStream(ctx.Proc, t.inBucket, t.inKey, readOff, readLen,
		objectstore.StreamOptions{ChunkBytes: AdaptiveChunkBytes(t.chunkBytes, t.n)})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	builder := newRunBuilder(t.wave.fanOut, t.bounds)
	builder.sizeHint(int(readLen))
	feeder := &lineFeeder{
		fn:        builder.Add,
		pos:       readOff,
		limit:     t.off + t.n,
		end:       t.size,
		skipFirst: prefixByte,
	}
	// The CPU budget keeps the total partition charge at exactly the
	// slice over PartitionBps — overscan bytes are transferred but their
	// lines belong to the next mapper.
	budget := t.n
	sized := false
	for {
		pl, err := st.Next(ctx.Proc)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if raw, real := pl.Bytes(); real {
			if err := feeder.feed(raw); err != nil {
				return nil, err
			}
		} else {
			sized = true
		}
		charge := pl.Size()
		if charge > budget {
			charge = budget
		}
		budget -= charge
		ctx.ComputeBytes(charge, t.wave.streamBps)
		if feeder.done {
			break // every owned line is in; abandon the rest of the range
		}
	}
	if !sized {
		if err := feeder.finish(); err != nil {
			return nil, err
		}
	}
	// The per-partition radix sort is the only post-transfer work.
	ctx.ComputeBytes(t.n, t.wave.sortBps)
	if sized {
		return nil, nil
	}
	return builder.Finish(), nil
}
