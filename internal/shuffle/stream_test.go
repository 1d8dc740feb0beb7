package shuffle

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// chunkList is a source handing out prebuilt chunk payloads in order.
type chunkList []payload.Payload

func (c *chunkList) Next(*des.Proc) (payload.Payload, error) {
	if len(*c) == 0 {
		return nil, io.EOF
	}
	pl := (*c)[0]
	*c = (*c)[1:]
	return pl, nil
}

func (c *chunkList) Close() {}

// cutChunks cuts raw into chunks of the given sizes, cycled.
func cutChunks(raw []byte, sizes []int) chunkList {
	var chunks chunkList
	for pos, i := 0, 0; pos < len(raw); i++ {
		n := min(sizes[i%len(sizes)], len(raw)-pos)
		chunks = append(chunks, payload.RealNoCopy(raw[pos:pos+n]))
		pos += n
	}
	return chunks
}

// feedChunks drives a map task's indexSlice over raw, the task's read
// from readOff, cut into the given chunk sizes (cycled), returning the
// runs finished from the chunks the reader kept.
func feedChunks(t *testing.T, raw []byte, readOff int64, prefixByte bool, offset, length int64,
	workers int, bounds []boundary, chunkSizes []int) [][]byte {
	t.Helper()
	tk := &task{wave: &wave{fanOut: workers}, off: offset, n: length, size: readOff + int64(len(raw)), bounds: bounds}
	if got, _, gotPrefix := tk.span(); got != readOff || gotPrefix != prefixByte {
		t.Fatalf("a task over [%d, +%d) reads from %d (prefix %v), want %d (%v)", offset, length, got, gotPrefix, readOff, prefixByte)
	}
	src := cutChunks(raw, chunkSizes)
	r := &lineReader{src: &src, m: &meter{clock: freeClock{}}, pos: readOff, keep: 1} // kept grows past its reservation
	builder, err := tk.indexSlice(r)
	if err != nil {
		t.Fatalf("indexSlice: %v", err)
	}
	if builder.fanOut == 0 {
		return make([][]byte, workers)
	}
	return builder.finish(r.span())
}

// TestPropertyFeedSliceMatchesPartitionRaw: for random slice
// geometries and adversarial chunkings — including chunks of 1 byte,
// chunks splitting every TSV record mid-line, and chunks larger than
// the input — the streamed partitions must be byte-identical to
// partitionRaw over the same buffered range.
func TestPropertyFeedSliceMatchesPartitionRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(1721))
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 77, Sorted: false})
	object := bed.Marshal(recs)
	bounds := benchBounds(recs, 5)
	const workers = 5
	total := int64(len(object))

	for trial := 0; trial < 60; trial++ {
		// A random slice of the object, like one mapper's range.
		offset := rng.Int63n(total)
		length := 1 + rng.Int63n(total-offset)
		readOff := offset
		prefix := false
		if readOff > 0 {
			readOff--
			prefix = true
		}
		readLen := offset + length + overscan - readOff
		if readOff+readLen > total {
			readLen = total - readOff
		}
		raw := object[readOff : readOff+readLen]

		want, err := partitionRaw(raw, prefix, offset, length, workers, bounds)
		if err != nil {
			t.Fatalf("trial %d: partitionRaw: %v", trial, err)
		}
		var chunks []int
		switch trial % 4 {
		case 0:
			chunks = []int{1} // every record split at every byte
		case 1:
			chunks = []int{7, 13, 48, 3} // odd sizes straddling lines
		case 2:
			chunks = []int{1 << 20} // one chunk (degenerate to buffered)
		default:
			for i := 0; i < 8; i++ {
				chunks = append(chunks, 1+rng.Intn(200))
			}
		}
		got := feedChunks(t, raw, readOff, prefix, offset, length, workers, bounds, chunks)
		if len(got) != len(want) {
			t.Fatalf("trial %d: partition count %d vs %d", trial, len(got), len(want))
		}
		for r := range want {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("trial %d (chunks %v): partition %d differs (%d vs %d bytes)",
					trial, chunks, r, len(got[r]), len(want[r]))
			}
		}
	}
}

// FuzzLineReader: arbitrary bytes cut into arbitrary chunks (each byte
// of cuts is a chunk length, cycled; 0 is an empty chunk). The lines
// handed out and where they start must be bytes.Split of the whole, the
// last one flagged as the tail when no newline ends it; every byte must
// be pulled; and the last non-blank line handed out must survive the
// next call, which is what the merge's sortedness check reads.
func FuzzLineReader(f *testing.F) {
	f.Add([]byte("chr1\t5\t6\n\n \nchr1\t7\t8"), []byte{1})
	f.Add([]byte("a\nbb\n\nccc\n"), []byte{3, 0, 2})
	f.Add([]byte("one line, no newline"), []byte{})
	f.Add([]byte(""), []byte{4})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var src chunkList
		for pos, i := 0, 0; pos < len(data); i++ {
			n := len(data) - pos // no cuts, or too many empty chunks: the rest in one
			if len(cuts) > 0 && i < 4*len(data)+len(cuts) {
				n = min(int(cuts[i%len(cuts)]), n)
			}
			src = append(src, payload.RealNoCopy(data[pos:pos+n]))
			pos += n
		}
		want := bytes.Split(data, []byte("\n"))
		if len(want[len(want)-1]) == 0 {
			want = want[:len(want)-1] // a final newline leaves no tail
		}
		r := &lineReader{src: &src, m: &meter{clock: freeClock{}}}
		var at int64
		var kept, keptCopy []byte
		for i := 0; ; i++ {
			line, start, tail, err := r.next()
			if kept != nil && !bytes.Equal(kept, keptCopy) {
				t.Fatalf("line %d: the last non-blank line became %q, was %q", i, kept, keptCopy)
			}
			if errors.Is(err, io.EOF) {
				if i != len(want) {
					t.Fatalf("%d lines, want %d", i, len(want))
				}
				break
			}
			if err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
			if i >= len(want) || !bytes.Equal(line, want[i]) || start != at {
				t.Fatalf("line %d: %q at %d, want %q at %d", i, line, start, want[min(i, len(want)-1)], at)
			}
			if wantTail := i == len(want)-1 && !bytes.HasSuffix(data, []byte("\n")); tail != wantTail {
				t.Fatalf("line %d: tail %v, want %v", i, tail, wantTail)
			}
			at += int64(len(line)) + 1
			if len(bytes.TrimSpace(line)) != 0 {
				kept, keptCopy = line, bytes.Clone(line)
			}
		}
		if r.pos != int64(len(data)) {
			t.Fatalf("pulled %d bytes of %d", r.pos, len(data))
		}
	})
}

// TestGoldenMidLineChunksMatchSeed: all three operators, streamed with
// a chunk size guaranteed to split records mid-line on every read —
// map input, reduce and repartition runs, cache slabs — must produce
// output byte-identical to the seed oracle.
func TestGoldenMidLineChunksMatchSeed(t *testing.T) {
	const chunk = 1009 // prime, ~21 bedMethyl lines: every chunk ends mid-line
	recs := bed.Generate(bed.GenConfig{Records: 5000, Seed: 84, Sorted: false})
	want := seedSortedBytes(recs)

	rig := newRig(t)
	var got, gotHier []byte
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		spec := sortSpec(6)
		spec.StreamChunkBytes = chunk
		res, err := rig.op.Sort(p, spec)
		if err != nil {
			t.Errorf("Sort: %v", err)
			return
		}
		got = fetchRawParts(t, rig, p, res.OutputKeys)
		hs := hierSpec(8, 4)
		hs.StreamChunkBytes = chunk
		hs.OutputPrefix = "sorted/h/"
		hres, err := rig.op.Sort(p, hs)
		if err != nil {
			t.Errorf("two-level Sort: %v", err)
			return
		}
		gotHier = fetchRawParts(t, rig, p, hres.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}

	crig, _ := newCacheRig(t)
	var gotCache []byte
	crig.sim.Spawn("driver", func(p *des.Proc) {
		crig.loadInput(t, p, recs)
		cs := cacheSpec(5)
		cs.StreamChunkBytes = chunk
		res, err := crig.op.Sort(p, cs)
		if err != nil {
			t.Errorf("cache Sort: %v", err)
			return
		}
		gotCache = fetchRawParts(t, crig, p, res.OutputKeys)
	})
	if err := crig.sim.Run(); err != nil {
		t.Fatalf("cache sim: %v", err)
	}

	for _, c := range []struct {
		name string
		out  []byte
	}{
		{"one-level", got},
		{"hierarchical", gotHier},
		{"cache", gotCache},
	} {
		if !bytes.Equal(c.out, want) {
			t.Errorf("%s: streamed output differs from seed oracle (%d vs %d bytes)", c.name, len(c.out), len(want))
		}
	}
}

// TestLongLineAcrossSliceEdge: a record longer than the overscan, swept
// across a map-slice boundary. Wherever it lands the job must either
// sort correctly or fail with the typed errLineTooLong naming the line —
// never flush the cut-short head of the line as if it were the file's
// last line (which surfaced as "want 11 fields, got 4" on valid input,
// or worse, parsed).
func TestLongLineAcrossSliceEdge(t *testing.T) {
	base := bed.Generate(bed.GenConfig{Records: 400, Seed: 87, Sorted: false})
	long := bed.Record{Chrom: "chr7", Start: 1234, End: 1235, Name: strings.Repeat("n", 6000),
		Score: 1, Strand: '+', Coverage: 9, MethPct: 50}
	const workers = 4
	sorted, tooLong := 0, 0
	for at := 0; at <= len(base); at += 5 {
		recs := append(append(append([]bed.Record{}, base[:at]...), long), base[at:]...)
		object := bed.Marshal(recs)
		lineStart := int64(len(bed.Marshal(recs[:at])))
		rig := newRig(t)
		var got []byte
		var sortErr error
		rig.sim.Spawn("driver", func(p *des.Proc) {
			rig.loadInput(t, p, recs)
			var res Result
			if res, sortErr = rig.op.Sort(p, sortSpec(workers)); sortErr == nil {
				got = fetchRawParts(t, rig, p, res.OutputKeys)
			}
		})
		if err := rig.sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		// The mapper owning the line reads through its slice end plus the
		// overscan; the line fits iff it ends inside that span.
		off, n := EvenShare(int64(len(object)), workers, 0)
		for m := 1; lineStart >= off+n; m++ {
			off, n = EvenShare(int64(len(object)), workers, m)
		}
		lineEnd := lineStart + int64(len(bed.AppendTSV(nil, long)))
		fits := lineEnd <= off+n+overscan
		var tl *errLineTooLong
		switch {
		case sortErr == nil:
			if !fits {
				t.Fatalf("line at %d: sort succeeded though the line outruns the overscan", lineStart)
			}
			if !bytes.Equal(got, seedSortedBytes(recs)) {
				t.Fatalf("line at %d: output differs from seed oracle", lineStart)
			}
			sorted++
		case errors.As(sortErr, &tl):
			if fits {
				t.Fatalf("line at %d: %v, but the line fits its mapper's span", lineStart, sortErr)
			}
			if tl.Offset != lineStart || tl.Overscan != overscan {
				t.Fatalf("line at %d: error names offset %d overscan %d", lineStart, tl.Offset, tl.Overscan)
			}
			tooLong++
		default:
			t.Fatalf("line at %d: untyped failure on valid input: %v", lineStart, sortErr)
		}
	}
	if sorted == 0 || tooLong == 0 {
		t.Fatalf("sweep is one-sided: %d sorted, %d too long", sorted, tooLong)
	}
}

// TestStreamingMapUnderStoreFailures: injected object-store failures
// hit both the streams' open admissions and their chunk continuations;
// the client's chunk-level resume (bounded by MaxRetries) must keep
// the output byte-identical, with retries actually exercised.
func TestStreamingMapUnderStoreFailures(t *testing.T) {
	sim := des.New(17)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   time.Millisecond,
		PerConnBandwidth: 1e9,
		ReadOpsPerSec:    1e6,
		WriteOpsPerSec:   1e6,
		OpsBurst:         1e6,
		FailureRate:      0.1,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := faas.New(sim, store, faas.Config{
		ColdStart:          50 * time.Millisecond,
		WarmStart:          5 * time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   500,
		BillingGranularity: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	op, err := NewOperator(pf, store, nil)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	rig := &testRig{sim: sim, store: store, pf: pf, op: op}
	recs := bed.Generate(bed.GenConfig{Records: 4000, Seed: 85, Sorted: false})
	want := seedSortedBytes(recs)
	spec := sortSpec(4)
	spec.StreamChunkBytes = 4096 // many continuations per stream: plenty of failure draws
	spec.MaxRetries = 4          // platform-level re-invocations on top of client retries
	var got []byte
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		res, err := rig.op.Sort(p, spec)
		if err != nil {
			t.Errorf("Sort under failures: %v", err)
			return
		}
		got = fetchRawParts(t, rig, p, res.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output corrupt under injected failures: %d bytes, want %d", len(got), len(want))
	}
	if store.Metrics().Throttled == 0 {
		t.Fatal("no throttles metered at 10% failure rate; test exercised nothing")
	}
}

// bufferedMapPhase1 is what the map phase of TestStreamingMapOverlapsTransfer's
// rig cost when the mapper buffered its whole ranged GET before
// partitioning: Phase1 under Spec.BufferedRead at commit 357016d, the
// last to carry that switch (the sim is deterministic, so this is the
// number, not a sample). EXPERIMENTS.md, PR 5 and PR 14, has the A/B.
const bufferedMapPhase1 = 2860948752 * time.Nanosecond

// TestStreamingMapOverlapsTransfer is the acceptance criterion: on the
// 256k-record workload the streamed map stage's wall time must beat
// the buffered transfer + partition sum, because partition CPU now
// hides inside the remaining transfer.
func TestStreamingMapOverlapsTransfer(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 1 << 18, Seed: 19, Sorted: false})

	rig := streamReduceRig(t, 5, 4e6, 0) // slow enough that transfer rivals CPU
	spec := sortSpec(4)
	spec.PartitionBps = 4e6 // transfer-bound ≈ CPU-bound: maximal overlap win
	spec.MergeBps = 50e6
	spec.StreamChunkBytes = 256 << 10
	streamRes, sorted := runSort(t, rig, recs, spec)
	if len(sorted) != len(recs) || !bed.IsSorted(sorted) {
		t.Fatal("overlap rig sorted incorrectly")
	}

	// The buffered map paid read transfer + partition CPU serially;
	// streaming should hide the smaller of the two inside the other.
	// Both variants share the partition-write leg and startup, so the
	// win must be ~min(readTransfer, streamCPU) of wall time.
	perWorker := float64(streamRes.TotalBytes) / 4
	readLeg := time.Duration(perWorker / 4e6 * float64(time.Second))
	streamBps, _ := MapStreamRates(4e6)
	streamCPU := time.Duration(perWorker / streamBps * float64(time.Second))
	hidden := readLeg
	if streamCPU < hidden {
		hidden = streamCPU
	}
	if bound := bufferedMapPhase1 - hidden*7/10; streamRes.Phase1 > bound {
		t.Fatalf("streamed Phase1 %v hides too little of the %v overlappable leg (buffered %v, want <= %v)",
			streamRes.Phase1, hidden, bufferedMapPhase1, bound)
	}
	t.Logf("map phase1: streamed %v vs buffered %v (saved %v of %v overlappable)",
		streamRes.Phase1, bufferedMapPhase1, bufferedMapPhase1-streamRes.Phase1, hidden)
}
