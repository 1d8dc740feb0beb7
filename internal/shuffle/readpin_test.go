package shuffle

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// The read-side trace pins how the shuffle turns chunks into lines, on
// well-formed inputs only: a map slice read off a store stream, and the
// k-way merge over store streams and over resident payloads. It is
// compared, never rewritten (testdata/read_trace.golden).
//
// A merge's sources are wrapped, so its trace is every Next (source,
// bytes, real or sized), every charge and the hash of every emitted
// line, in order, then the result. A map slice opens its own store
// stream inside the handler, which a test cannot wrap: its Next/charge
// interleaving is pinned through what it does to the simulation (the
// invocation's length, the events fired, the bytes the store served,
// with transfer and CPU of one size so that a reorder moves them), its
// runs' hashes and its error.

// readChunkings are the stream granularities every case runs at: every
// byte its own chunk, a prime that ends chunks mid-line, and the whole
// range in one chunk.
var readChunkings = []int64{1, 61, 1 << 30}

// readPinObject is the map input: generated records around two blank
// lines, a whitespace-only line and one line longer than the overscan,
// with no newline after the last record.
func readPinObject() (object []byte, recs []bed.Record, marks map[string]int) {
	recs = bed.Generate(bed.GenConfig{Records: 120, Seed: 88, Sorted: false})
	long := bed.Record{Chrom: "chr5", Start: 777, End: 778, Name: strings.Repeat("x", overscan+900),
		Score: 1, Strand: '-', Coverage: 3, MethPct: 40}
	marks = map[string]int{}
	object = bed.Marshal(recs[:40])
	marks["blank"] = len(object)
	object = append(object, "\n\n"...)
	object = append(object, bed.Marshal(recs[40:80])...)
	object = append(object, " \t\n"...)
	marks["long"] = len(object)
	object = bed.AppendTSV(object, long)
	object = append(object, bed.Marshal(recs[80:])...)
	object = object[:len(object)-1]
	return object, append(append([]bed.Record{}, recs...), long), marks
}

// readPinSlices are the map slices of the trace, as (off, n) over the
// object.
func readPinSlices(object []byte, marks map[string]int) []struct {
	name  string
	off   int
	n     int
	sized bool
} {
	lineStart := bytes.Index(object[1000:], []byte("\n")) + 1001 // object[lineStart-1] == '\n'
	size := len(object)
	return []struct {
		name  string
		off   int
		n     int
		sized bool
	}{
		{name: "head-ends-mid-line", off: 0, n: 1500},
		{name: "prefix-on-newline", off: lineStart, n: 1100},
		{name: "prefix-mid-line", off: lineStart + 9, n: 1100},
		{name: "blank-at-limit", off: marks["blank"] - 700, n: 700},
		{name: "blank-straddles-limit", off: marks["blank"] - 700, n: 701},
		{name: "blanks-before-limit", off: marks["blank"] - 700, n: 702},
		{name: "overscan-cut", off: marks["long"] - 300, n: 400},
		{name: "unterminated-last-line", off: size - 700, n: 700},
		{name: "whole-object", off: 0, n: size},
		{name: "sized", off: 5000, n: 5000, sized: true},
	}
}

// readPinRig is a sim with a store slow enough that a chunk's transfer
// and its partition CPU take the same order of time.
func readPinRig(t *testing.T) (*des.Sim, *objectstore.Service, *faas.Platform) {
	t.Helper()
	sim := des.New(5)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   time.Millisecond,
		PerConnBandwidth: 2e6,
		ReadOpsPerSec:    1e6,
		WriteOpsPerSec:   1e6,
		OpsBurst:         1e6,
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
		ConcurrencyLimit:   10,
		BillingGranularity: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	return sim, store, pf
}

func shortSum(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:6])
}

func errText(err error) string {
	if err == nil {
		return "nil"
	}
	return strings.ReplaceAll(err.Error(), " ", "_")
}

// mapReadTrace renders one line per map slice and chunking.
func mapReadTrace(t *testing.T) string {
	t.Helper()
	object, recs, marks := readPinObject()
	bounds := benchBounds(recs, 3)
	var b strings.Builder
	for _, sl := range readPinSlices(object, marks) {
		for _, chunk := range readChunkings {
			sim, store, pf := readPinRig(t)
			type outcome struct {
				parts [][]byte
				err   error
				took  time.Duration
				fired int64
				store objectstore.Metrics
			}
			if err := pf.Register("pin/map", func(ctx *faas.Ctx, in any) (any, error) {
				tk := in.(*task)
				start, fired, before := ctx.Proc.Now(), sim.Fired(), store.Metrics()
				parts, err := tk.readSlice(ctx, int64(sl.off), int64(sl.n))
				return outcome{parts, err, ctx.Proc.Now() - start, sim.Fired() - fired, store.Metrics().Sub(before)}, nil
			}); err != nil {
				t.Fatalf("register: %v", err)
			}
			streamBps, sortBps := MapStreamRates(1.6e6)
			cut, in := bounds, payload.RealNoCopy(object)
			if sl.sized {
				cut, in = nil, payload.Sized(int64(len(object)))
			}
			tk := mapTask(wave{fanOut: 3, streamBps: streamBps, sortBps: sortBps}, int64(len(object)), cut, chunk)
			var got outcome
			sim.Spawn("driver", func(p *des.Proc) {
				c := objectstore.NewClient(store)
				if err := c.CreateBucket(p, "in"); err != nil {
					t.Errorf("bucket: %v", err)
					return
				}
				if err := c.Put(p, "in", "data.bed", in); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				out, err := pf.Invoke(p, "pin/map", tk, faas.InvokeOptions{})
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				got = out.(outcome)
			})
			if err := sim.Run(); err != nil {
				t.Fatalf("%s: sim: %v", sl.name, err)
			}
			fmt.Fprintf(&b, "map/%s/chunk=%d took_ns=%d fired=%d store{b=%d out=%d} runs=%d",
				sl.name, chunk, int64(got.took), got.fired, got.store.ClassBOps, got.store.BytesOut, len(got.parts))
			for _, part := range got.parts {
				fmt.Fprintf(&b, " %d:%s", len(part), shortSum(part))
			}
			fmt.Fprintf(&b, " err=%s\n", errText(got.err))
		}
	}
	return b.String()
}

// pinSource records what the merge pulls from a source into trace. It
// answers to both spellings of the run-source interface, Next/Close and
// the lower-case next/close it had when the trace was recorded, and to
// Poll, which records only what it hands out, as Next does.
type pinSource struct {
	idx   int
	pull  func(p *des.Proc) (payload.Payload, error)
	poll  func(p *des.Proc) (payload.Payload, bool, error) // nil: pull never waits
	trace *readTrace
}

func (s *pinSource) Next(p *des.Proc) (payload.Payload, error) {
	pl, err := s.pull(p)
	s.record(pl, err)
	return pl, err
}

func (s *pinSource) Poll(p *des.Proc) (payload.Payload, bool, error) {
	if s.poll == nil {
		pl, err := s.Next(p)
		return pl, false, err
	}
	pl, wait, err := s.poll(p)
	if !wait {
		s.record(pl, err)
	}
	return pl, wait, err
}

func (s *pinSource) record(pl payload.Payload, err error) {
	switch {
	case err != nil:
		s.trace.add("next %d err %v", s.idx, err)
	default:
		_, real := pl.Bytes()
		s.trace.add("next %d %d real=%v", s.idx, pl.Size(), real)
	}
}

func (s *pinSource) Close()                                    {}
func (s *pinSource) next(p *des.Proc) (payload.Payload, error) { return s.Next(p) }
func (s *pinSource) close()                                    { s.Close() }

// readTrace hashes an event log and counts its entries by kind.
type readTrace struct {
	h      hash.Hash
	counts map[string]int
}

func newReadTrace() *readTrace { return &readTrace{h: sha256.New(), counts: map[string]int{}} }

// CPUTime makes the trace the merge's clock: every charge is recorded
// and costs a microsecond a byte.
func (r *readTrace) CPUTime(n int64, _ float64) (time.Duration, bool) {
	r.add("charge %d", n)
	return time.Duration(n) * time.Microsecond, true
}

func (r *readTrace) add(format string, args ...any) {
	fmt.Fprintf(r.h, format+"\n", args...)
	r.counts[strings.Fields(format)[0]]++
}

// pinRuns are the merge cases: each run real bytes, empty, or a
// timing-only payload of the given size.
func pinRuns() []struct {
	name string
	runs []payload.Payload
} {
	recs := bed.Generate(bed.GenConfig{Records: 60, Seed: 89, Sorted: false})
	bed.Sort(recs)
	lists := make([][]bed.Record, 3)
	for i, r := range recs {
		lists[i%3] = append(lists[i%3], r)
	}
	a := append(bed.Marshal(lists[0][:10]), "\n \n"...)
	a = append(a, bed.Marshal(lists[0][10:])...)
	b := bed.Marshal(lists[1])
	c := bed.Marshal(lists[2])
	c = c[:len(c)-1] // an unterminated last line
	real := func(raw []byte) payload.Payload { return payload.RealNoCopy(raw) }
	return []struct {
		name string
		runs []payload.Payload
	}{
		{"real", []payload.Payload{real(a), real(b), real(c)}},
		{"all-sized", []payload.Payload{payload.Sized(900), payload.Sized(700)}},
		{"empty-then-sized", []payload.Payload{real(nil), payload.Sized(800)}},
		{"real-then-sized", []payload.Payload{real(b), payload.Sized(600)}},
		{"empty-then-real", []payload.Payload{real(nil), real(c)}},
	}
}

// mergeReadTrace renders one line per merge case, medium and chunking.
func mergeReadTrace(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, tc := range pinRuns() {
		for _, medium := range []string{"store", "resident"} {
			for _, chunk := range readChunkings {
				sim, store, _ := readPinRig(t)
				trace := newReadTrace()
				var (
					sized bool
					total int64
					err   error
					took  time.Duration
				)
				sim.Spawn("driver", func(p *des.Proc) {
					c := objectstore.NewClient(store)
					srcs := make([]runSource, len(tc.runs))
					if medium == "store" {
						if err := c.CreateBucket(p, "runs"); err != nil {
							t.Errorf("bucket: %v", err)
							return
						}
						keys := make([]string, len(tc.runs))
						for i, run := range tc.runs {
							keys[i] = fmt.Sprintf("run-%d", i)
							if err := c.Put(p, "runs", keys[i], run); err != nil {
								t.Errorf("put: %v", err)
								return
							}
						}
						streams := make([]objectstore.ClientStream, len(keys))
						if _, oerr := c.GetStreams(p, streams, "runs", keys, 0, -1, objectstore.StreamOptions{ChunkBytes: chunk}); oerr != nil {
							t.Errorf("open: %v", oerr)
							return
						}
						defer func() {
							for i := range streams {
								streams[i].Close()
							}
						}()
						for i := range streams {
							srcs[i] = &pinSource{idx: i, pull: streams[i].Next, poll: streams[i].Poll, trace: trace}
						}
					} else {
						for i, run := range tc.runs {
							pl, off := run, int64(0)
							srcs[i] = &pinSource{idx: i, trace: trace, pull: func(*des.Proc) (payload.Payload, error) {
								if off >= pl.Size() {
									return nil, io.EOF
								}
								n := min(chunk, pl.Size()-off)
								out, err := pl.Slice(off, n)
								off += n
								return out, err
							}}
						}
					}
					start := p.Now()
					sized, total, err = mergeStreamedRuns(&meter{p: p, clock: trace, left: math.MaxInt64}, srcs, func(_ bed.Key, line []byte) error {
						h := fnv.New64a()
						h.Write(line)
						trace.add("emit %016x", h.Sum64())
						return nil
					})
					took = p.Now() - start
				})
				if serr := sim.Run(); serr != nil {
					t.Fatalf("%s/%s: sim: %v", tc.name, medium, serr)
				}
				fmt.Fprintf(&b, "merge/%s/%s/chunk=%d next=%d charge=%d emit=%d sized=%v total=%d took_ns=%d err=%s trace=%x\n",
					medium, tc.name, chunk, trace.counts["next"], trace.counts["charge"], trace.counts["emit"],
					sized, total, int64(took), errText(err), trace.h.Sum(nil)[:8])
			}
		}
	}
	return b.String()
}

// TestReadTraceGolden pins the read side of the shuffle: a change to
// how a map slice or a merged run is split into lines that moves one
// Next, one charge, one line or the result shows up as a diff.
func TestReadTraceGolden(t *testing.T) {
	got := mapReadTrace(t) + mergeReadTrace(t)
	golden := filepath.Join("testdata", "read_trace.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v\ngot:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("read trace drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
