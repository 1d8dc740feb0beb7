package objectstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// streamRig builds a service with one stored object of n pseudo-random
// printable bytes.
func streamRig(t *testing.T, cfg Config, n int) (*des.Sim, *Service, []byte) {
	t.Helper()
	sim := des.New(7)
	svc, err := New(sim, cfg)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte('a' + (i*131)%26)
	}
	sim.Spawn("setup", func(p *des.Proc) {
		// Client-side setup so rigs with injected failure rates still
		// load deterministically.
		c := NewClient(svc)
		c.MaxRetries = 1000
		if err := c.CreateBucket(p, "b"); err != nil {
			t.Errorf("bucket: %v", err)
			return
		}
		if err := c.Put(p, "b", "k", payload.Real(data)); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("setup sim: %v", err)
	}
	return sim, svc, data
}

func fastCfg() Config {
	return Config{
		RequestLatency:   time.Millisecond,
		PerConnBandwidth: 1e6, // 1 MB/s: transfers take visible virtual time
		ReadOpsPerSec:    1e6,
		WriteOpsPerSec:   1e6,
		OpsBurst:         1e6,
	}
}

// openStream opens bytes [off, off+n) of bkt/key with one admission and
// no retry, for a client with flowCap: the bare state machine, whose
// Next the tests below drive only where nothing throttles a
// continuation (rawNext takes it where something may).
func openStream(svc *Service, p *des.Proc, bkt, key string, off, n int64, opts StreamOptions, flowCap float64) (*ClientStream, error) {
	st := &ClientStream{c: &Client{svc: svc, FlowCap: flowCap}}
	if err := st.open(p, bkt, key, off, n, opts); err != nil {
		return nil, err
	}
	return st, nil
}

// rawNext is Next with no resume: a throttled continuation surfaces as
// ErrSlowDown once the chunks before it are consumed.
func rawNext(st *ClientStream, p *des.Proc) (payload.Payload, error) {
	if st.closed {
		return nil, ErrStreamClosed
	}
	for {
		if pl, wait, err := st.poll(p); !wait {
			return pl, err
		}
		p.Park()
	}
}

// drainStream consumes a stream to EOF, optionally sleeping cpu per
// chunk (the consumer's simulated per-chunk work).
func drainStream(p *des.Proc, st *ClientStream, cpu time.Duration) ([]byte, error) {
	var out []byte
	for {
		pl, err := st.Next(p)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if raw, ok := pl.Bytes(); ok {
			out = append(out, raw...)
		}
		if cpu > 0 {
			p.Sleep(cpu)
		}
	}
}

func TestStreamDeliversRangeByteIdentical(t *testing.T) {
	for _, chunk := range []int64{1, 7, 100, 4096, 1 << 20} {
		sim, svc, data := streamRig(t, fastCfg(), 10000)
		var got, want []byte
		sim.Spawn("reader", func(p *des.Proc) {
			pl, err := svc.GetRange(p, "b", "k", 500, 9000, 0)
			if err != nil {
				t.Errorf("GetRange: %v", err)
				return
			}
			want, _ = pl.Bytes()
			st, err := openStream(svc, p, "b", "k", 500, 9000, StreamOptions{ChunkBytes: chunk}, 0)
			if err != nil {
				t.Errorf("GetStream: %v", err)
				return
			}
			got, err = drainStream(p, st, 0)
			if err != nil {
				t.Errorf("drain: %v", err)
			}
		})
		if err := sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, data[500:9500]) {
			t.Fatalf("chunk=%d: stream bytes differ from GetRange (%d vs %d bytes)",
				chunk, len(got), len(want))
		}
	}
}

// TestStreamOverlapsConsumerWork is the point of streaming: a consumer
// doing per-chunk work finishes in ~max(transfer, cpu), not their sum.
func TestStreamOverlapsConsumerWork(t *testing.T) {
	const size = 1 << 20 // 1 MB at 1 MB/s: ~1 s transfer
	cfg := fastCfg()
	const chunks = 16
	perChunkCPU := 60 * time.Millisecond // ~0.96 s CPU total

	// Buffered reference: GetRange then compute.
	sim, svc, _ := streamRig(t, cfg, size)
	var buffered time.Duration
	sim.Spawn("buffered", func(p *des.Proc) {
		start := p.Now()
		if _, err := svc.GetRange(p, "b", "k", 0, size, 0); err != nil {
			t.Errorf("GetRange: %v", err)
			return
		}
		p.Sleep(chunks * perChunkCPU)
		buffered = p.Now() - start
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("buffered sim: %v", err)
	}

	sim2, svc2, _ := streamRig(t, cfg, size)
	var streamed time.Duration
	sim2.Spawn("streamed", func(p *des.Proc) {
		start := p.Now()
		st, err := openStream(svc2, p, "b", "k", 0, size, StreamOptions{ChunkBytes: size / chunks}, 0)
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		if _, err := drainStream(p, st, perChunkCPU); err != nil {
			t.Errorf("drain: %v", err)
		}
		streamed = p.Now() - start
	})
	if err := sim2.Run(); err != nil {
		t.Fatalf("streamed sim: %v", err)
	}

	// Buffered pays transfer + cpu ≈ 2 s; streamed should approach
	// max(transfer, cpu) ≈ 1 s plus one chunk of pipeline fill.
	if streamed >= buffered {
		t.Fatalf("streamed %v not faster than buffered %v", streamed, buffered)
	}
	bound := time.Duration(float64(buffered) * 0.65)
	if streamed > bound {
		t.Fatalf("streamed %v shows too little overlap (buffered %v, want <= %v)",
			streamed, buffered, bound)
	}
}

// TestStreamEqualTimingWithoutConsumerWork: with no per-chunk CPU,
// chunking must not change transfer economics materially.
func TestStreamEqualTimingWithoutConsumerWork(t *testing.T) {
	const size = 1 << 20
	sim, svc, _ := streamRig(t, fastCfg(), size)
	var buffered, streamed time.Duration
	sim.Spawn("reader", func(p *des.Proc) {
		start := p.Now()
		if _, err := svc.GetRange(p, "b", "k", 0, size, 0); err != nil {
			t.Errorf("GetRange: %v", err)
			return
		}
		buffered = p.Now() - start
		start = p.Now()
		st, err := openStream(svc, p, "b", "k", 0, size, StreamOptions{ChunkBytes: 64 << 10}, 0)
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		if _, err := drainStream(p, st, 0); err != nil {
			t.Errorf("drain: %v", err)
		}
		streamed = p.Now() - start
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if d := (streamed - buffered).Seconds() / buffered.Seconds(); d > 0.01 || d < -0.01 {
		t.Fatalf("streamed %v vs buffered %v: drift %.2f%%", streamed, buffered, d*100)
	}
}

func TestStreamSizedPayload(t *testing.T) {
	sim := des.New(3)
	svc, err := New(sim, fastCfg())
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	sim.Spawn("driver", func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		_ = svc.Put(p, "b", "k", payload.Sized(1000), 0)
		st, err := openStream(svc, p, "b", "k", 0, 1000, StreamOptions{ChunkBytes: 300}, 0)
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		var total int64
		var n int
		for {
			pl, err := st.Next(p)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Errorf("Next: %v", err)
				return
			}
			if _, real := pl.Bytes(); real {
				t.Error("sized object yielded real chunk")
			}
			total += pl.Size()
			n++
		}
		if total != 1000 || n != 4 {
			t.Errorf("sized stream: %d bytes in %d chunks, want 1000 in 4", total, n)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestStreamCloseEarlyNoDeadlock(t *testing.T) {
	sim, svc, _ := streamRig(t, fastCfg(), 1<<20)
	sim.Spawn("reader", func(p *des.Proc) {
		st, err := openStream(svc, p, "b", "k", 0, 1<<20, StreamOptions{ChunkBytes: 1 << 10}, 0)
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		if _, err := st.Next(p); err != nil {
			t.Errorf("Next: %v", err)
		}
		st.Close()
		if _, err := st.Next(p); !errors.Is(err, ErrStreamClosed) {
			t.Errorf("Next after Close = %v, want ErrStreamClosed", err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim after early close: %v", err)
	}
}

func TestStreamRangeErrors(t *testing.T) {
	sim, svc, _ := streamRig(t, fastCfg(), 100)
	sim.Spawn("reader", func(p *des.Proc) {
		if _, err := openStream(svc, p, "b", "missing", 0, 10, StreamOptions{}, 0); err == nil {
			t.Error("missing key accepted")
		}
		if _, err := openStream(svc, p, "b", "k", 50, 100, StreamOptions{}, 0); err == nil {
			t.Error("out-of-bounds range accepted")
		}
		st, err := openStream(svc, p, "b", "k", 10, 0, StreamOptions{}, 0)
		if err != nil {
			t.Errorf("empty range: %v", err)
			return
		}
		if _, err := st.Next(p); !errors.Is(err, io.EOF) {
			t.Errorf("empty range Next = %v, want EOF", err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestClientStreamResumesAfterThrottledContinuations: with failures
// injected, the client wrapper must deliver the exact range by
// resuming at the first undelivered byte.
func TestClientStreamResumesAfterThrottledContinuations(t *testing.T) {
	cfg := fastCfg()
	cfg.FailureRate = 0.15
	sim, svc, data := streamRig(t, cfg, 200000)
	c := NewClient(svc)
	c.MaxRetries = 100
	var got []byte
	sim.Spawn("reader", func(p *des.Proc) {
		cs, err := c.GetStream(p, "b", "k", 100, 150000, StreamOptions{ChunkBytes: 4096})
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		for {
			pl, err := cs.Next(p)
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				t.Errorf("Next: %v", err)
				return
			}
			raw, _ := pl.Bytes()
			got = append(got, raw...)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !bytes.Equal(got, data[100:150100]) {
		t.Fatalf("resumed stream corrupt: %d bytes", len(got))
	}
	if c.Retries() == 0 {
		t.Fatal("no retries at 15% failure rate; test exercised nothing")
	}
}

// TestClientStreamExhaustsRetries: a hostile failure rate with a tiny
// budget must surface an exhaustion error, not spin.
func TestClientStreamExhaustsRetries(t *testing.T) {
	cfg := fastCfg()
	cfg.FailureRate = 0.9
	sim, svc, _ := streamRig(t, cfg, 100000)
	c := NewClient(svc)
	c.MaxRetries = 2
	var lastErr error
	sim.Spawn("reader", func(p *des.Proc) {
		cs, err := c.GetStream(p, "b", "k", 0, 100000, StreamOptions{ChunkBytes: 1024})
		if err != nil {
			lastErr = err
			return
		}
		for {
			_, err := cs.Next(p)
			if err != nil {
				lastErr = err
				return
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if lastErr == nil || errors.Is(lastErr, io.EOF) {
		t.Fatalf("expected exhaustion error, got %v", lastErr)
	}
	if !errors.Is(lastErr, ErrSlowDown) {
		t.Fatalf("exhaustion error %v does not wrap ErrSlowDown", lastErr)
	}
}

// TestStreamMetricsMatchBuffered: BytesOut and class B counts for a
// streamed range must equal the buffered equivalent's.
func TestStreamMetricsMatchBuffered(t *testing.T) {
	sim, svc, _ := streamRig(t, fastCfg(), 50000)
	before := svc.Metrics()
	sim.Spawn("reader", func(p *des.Proc) {
		st, err := openStream(svc, p, "b", "k", 0, 50000, StreamOptions{ChunkBytes: 1 << 12}, 0)
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		if _, err := drainStream(p, st, 0); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	after := svc.Metrics()
	if got := after.BytesOut - before.BytesOut; got != 50000 {
		t.Fatalf("BytesOut delta = %d, want 50000", got)
	}
	if got := after.ClassBOps - before.ClassBOps; got != 1 {
		t.Fatalf("ClassBOps delta = %d, want 1 (one ranged GET)", got)
	}
}

// TestClientStreamBackoffResetsAfterDeliveredChunk: a delivered chunk
// proves the store recovered, so a later, unrelated throttle must
// start from the base backoff instead of inheriting the doubled delay
// a past recovery climbed to — and the MaxRetries budget restarts with
// it, bounding consecutive failures per incident rather than their
// lifetime total (a stream crossing a brownout window makes progress
// between throttles and must not die from the accumulation).
func TestClientStreamBackoffResetsAfterDeliveredChunk(t *testing.T) {
	sim, svc, _ := streamRig(t, fastCfg(), 50000)
	c := NewClient(svc)
	sim.Spawn("reader", func(p *des.Proc) {
		cs, err := c.GetStream(p, "b", "k", 0, 50000, StreamOptions{ChunkBytes: 4096})
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		defer cs.Close()
		// A stream that just resumed through several throttled
		// continuations sits high on the backoff ladder (the next delay
		// is RetryBackoffBase << retries).
		cs.retries = 3
		if _, err := cs.Next(p); err != nil {
			t.Errorf("Next: %v", err)
			return
		}
		if cs.retries != 0 {
			t.Errorf("retry budget = %d after a healthy chunk, want 0 (per-incident budget)", cs.retries)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestStreamCountsEgressWhenConsumerClosesMidTransfer: a chunk in
// flight when the consumer closes still traversed the backend link,
// so BytesOut must include it — and nothing past it, since the
// producer stops before starting another chunk.
func TestStreamCountsEgressWhenConsumerClosesMidTransfer(t *testing.T) {
	sim, svc, _ := streamRig(t, fastCfg(), 50000)
	before := svc.Metrics()
	sim.Spawn("reader", func(p *des.Proc) {
		st, err := openStream(svc, p, "b", "k", 0, 50000, StreamOptions{ChunkBytes: 10000}, 0)
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		// Each 10 KB chunk takes 10 ms at 1 MB/s: close while the
		// first is mid-flight.
		p.Sleep(time.Millisecond)
		st.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if got := svc.Metrics().BytesOut - before.BytesOut; got != 10000 {
		t.Fatalf("BytesOut delta = %d, want exactly the one in-flight chunk (10000)", got)
	}
}

// TestAbandonedStreamIsListed: a stream opened and then neither drained
// nor closed used to end the run with the kernel's deadlock report
// naming its producer process. No process produces chunks now, so the
// run drains clean; the service still knows, by the same name, and
// forgets the stream once somebody closes it.
func TestAbandonedStreamIsListed(t *testing.T) {
	sim, svc, _ := streamRig(t, fastCfg(), 50000)
	var abandoned, kept *ClientStream
	sim.Spawn("reader", func(p *des.Proc) {
		var err error
		// Five chunks against a window of two: the producing side stops
		// with three still to go.
		if abandoned, err = openStream(svc, p, "b", "k", 0, 50000, StreamOptions{ChunkBytes: 10000}, 0); err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		// One chunk leaves the window open: the producing side runs to the
		// end of the range whether or not anyone reads it. (Two would not:
		// a full window stops it even with nothing left to transfer, as it
		// stopped the process.)
		if kept, err = openStream(svc, p, "b", "k", 100, 1000, StreamOptions{ChunkBytes: 1000}, 0); err != nil {
			t.Errorf("GetStream: %v", err)
		}
		if got := svc.OpenStreams(); len(got) != 2 {
			t.Errorf("mid-run OpenStreams = %v, want both", got)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	want := "objectstore/stream#1/b/k@0"
	if got := svc.OpenStreams(); len(got) != 1 || got[0] != want {
		t.Fatalf("OpenStreams after the run = %v, want [%s]", got, want)
	}
	sim.Spawn("closer", func(p *des.Proc) {
		abandoned.Close()
		kept.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if got := svc.OpenStreams(); len(got) != 0 {
		t.Fatalf("OpenStreams after Close = %v, want none", got)
	}
}

// TestOneRangeOpenedTwiceListsTwice: two streams of one key at one
// offset differ only in their place in the open order, and a bucket set
// up directly, as the oracles' fixtures do, is listed by its name.
func TestOneRangeOpenedTwiceListsTwice(t *testing.T) {
	sim := des.New(7)
	svc, err := New(sim, fastCfg())
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	svc.buckets["b"] = newBucket("b")
	svc.buckets["b"].objects["k"] = stored{payload: payload.Sized(50000)}
	var opened []*ClientStream
	sim.Spawn("reader", func(p *des.Proc) {
		for range 2 {
			st, err := openStream(svc, p, "b", "k", 7, 30000, StreamOptions{ChunkBytes: 10000}, 0)
			if err != nil {
				t.Errorf("GetStream: %v", err)
				return
			}
			opened = append(opened, st)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	want := "[objectstore/stream#1/b/k@7 objectstore/stream#2/b/k@7]"
	if got := fmt.Sprint(svc.OpenStreams()); got != want {
		t.Fatalf("OpenStreams = %s, want %s", got, want)
	}
	for _, st := range opened {
		st.Close()
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if got := svc.OpenStreams(); len(got) != 0 {
		t.Fatalf("OpenStreams after Close = %v, want none", got)
	}
}

// TestClientStreamNextAfterCloseIssuesNoRequest: Close used to zero the
// remaining length, and the next Next reopened a zero-length range: a
// second billed class B request, answered io.EOF.
func TestClientStreamNextAfterCloseIssuesNoRequest(t *testing.T) {
	sim, svc, _ := streamRig(t, fastCfg(), 50000)
	before := svc.Metrics()
	sim.Spawn("reader", func(p *des.Proc) {
		cs, err := NewClient(svc).GetStream(p, "b", "k", 0, -1, StreamOptions{ChunkBytes: 10000})
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		cs.Close()
		at := p.Now()
		if _, err := cs.Next(p); !errors.Is(err, ErrStreamClosed) {
			t.Errorf("Next after Close = %v, want ErrStreamClosed", err)
		}
		if p.Now() != at {
			t.Errorf("Next after Close took %v of virtual time", p.Now()-at)
		}
		cs.Close() // still safe
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if got := svc.Metrics().ClassBOps - before.ClassBOps; got != 1 {
		t.Fatalf("open + close + next billed %d class B requests, want 1", got)
	}
	if got := svc.OpenStreams(); len(got) != 0 {
		t.Fatalf("OpenStreams = %v, want none", got)
	}
}

// TestStreamWholeObjectIsHandedThrough: a stream over a whole object in
// one chunk delivers the stored payload itself, not a copy of a copy.
func TestStreamWholeObjectIsHandedThrough(t *testing.T) {
	sim, svc, data := streamRig(t, fastCfg(), 5000)
	sim.Spawn("reader", func(p *des.Proc) {
		stored, err := svc.Get(p, "b", "k", 0)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		st, err := openStream(svc, p, "b", "k", 0, -1, StreamOptions{}, 0)
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		defer st.Close()
		pl, err := st.Next(p)
		if err != nil || pl != stored {
			t.Errorf("first chunk = %v, %v; want the stored payload", pl, err)
		}
		if raw, _ := pl.Bytes(); !bytes.Equal(raw, data) {
			t.Error("chunk bytes differ from the object")
		}
		if _, err := st.Next(p); !errors.Is(err, io.EOF) {
			t.Errorf("second Next = %v, want io.EOF", err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestClientStreamAllocBudget: what one small object read through
// Client.GetStream costs the allocator, open to close. The shuffle
// issues workers² of these, so the count is written down: the stream,
// one object, and step bound as a func (a des event is a func()). A
// name built at the open, a second object for the producing side, a
// slice for the window, a closure per chunk or a flow the link did not
// get back all show up here.
func TestClientStreamAllocBudget(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	const budget = 2
	sim := des.New(7)
	svc, err := New(sim, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	var allocs float64
	sim.Spawn("reader", func(p *des.Proc) {
		c := NewClient(svc)
		if err := c.CreateBucket(p, "shuffle"); err != nil {
			t.Error(err)
			return
		}
		if err := c.Put(p, "shuffle", "job-000017/m003/r101", payload.Sized(27_000)); err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(200, func() {
			cs, err := c.GetStream(p, "shuffle", "job-000017/m003/r101", 0, -1, StreamOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, err := cs.Next(p); err != nil {
					if !errors.Is(err, io.EOF) {
						t.Error(err)
					}
					break
				}
			}
			cs.Close()
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if allocs > budget {
		t.Fatalf("open + drain + close of a one-chunk sized stream: %.1f allocs, budget %d", allocs, budget)
	}
	t.Logf("%.1f allocs (budget %d)", allocs, budget)
}

// TestSizedStreamBoxesOnlyItsTail: a byte-less range of k full chunks
// allocates what a range of one chunk does, whatever k: its full chunks
// share one payload, boxed at the open in place of the range's own, and
// a short tail costs one box more.
func TestSizedStreamBoxesOnlyItsTail(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	const chunk, tail = 4096, 1000
	sim := des.New(7)
	svc, err := New(sim, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	allocs := map[[2]int64]float64{}
	sim.Spawn("reader", func(p *des.Proc) {
		c := NewClient(svc)
		if err := c.CreateBucket(p, "b"); err != nil {
			t.Error(err)
			return
		}
		if err := c.Put(p, "b", "k", payload.Sized(64*chunk)); err != nil {
			t.Error(err)
			return
		}
		for _, k := range []int64{1, 2, 5, 16} {
			for _, short := range []int64{0, tail} {
				chunks := 0
				allocs[[2]int64{k, short}] = testing.AllocsPerRun(50, func() {
					cs, err := c.GetStream(p, "b", "k", chunk, k*chunk+short, StreamOptions{ChunkBytes: chunk})
					if err != nil {
						t.Error(err)
						return
					}
					for chunks = 0; ; chunks++ {
						if _, err := cs.Next(p); err != nil {
							if !errors.Is(err, io.EOF) {
								t.Error(err)
							}
							break
						}
					}
					cs.Close()
				})
				if want := int(k) + int(short/tail); chunks != want {
					t.Errorf("%d full chunks and a tail of %d: %d chunks, want %d", k, short, chunks, want)
				}
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	one := allocs[[2]int64{1, 0}]
	for kt, n := range allocs {
		want := one
		if kt[1] > 0 {
			want++
		}
		if n != want {
			t.Errorf("a sized range of %d full chunks and a tail of %d: %.1f allocs, want %.0f (one chunk: %.0f)", kt[0], kt[1], n, want, one)
		}
	}
	t.Logf("one chunk: %.0f allocs", one)
}

// TestStreamResumesIntoItsOwnStorage: a continuation throttled
// mid-stream re-opens the rest of the range into the stream's own
// storage, and the stream, closed with a chunk in flight after that,
// drains to nothing open. The pre-merge wrapper in its process form
// (procClientStream, which opened a fresh stream after every throttle)
// runs the same script on the same seed, and the two agree on the bytes
// delivered, the meters (BytesOut with the chunk in flight, Throttled)
// and the event count; the bytes are the object's.
func TestStreamResumesIntoItsOwnStorage(t *testing.T) {
	const chunk, chunks = 1000, 20
	data := make([]byte, 50*chunk)
	for i := range data {
		data[i] = byte('a' + (i*131)%26)
	}
	type outcome struct {
		delivered int64
		crc       uint32
		metrics   Metrics
		retries   int64
		fired     int64
		open      []string
	}
	run := func(form requestForm, check func(st *ClientStream)) outcome {
		cfg := fastCfg()
		cfg.FailureRate = 0.2
		sim := des.New(11)
		svc, err := New(sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Stored directly, so that setting up draws nothing.
		svc.buckets["b"] = newBucket("b")
		svc.buckets["b"].objects["k"] = stored{payload: payload.RealNoCopy(data)}
		c := NewClient(svc)
		c.MaxRetries = 100
		var out outcome
		sim.Spawn("reader", func(p *des.Proc) {
			src, err := form.open(c, p, "b", "k", StreamOptions{ChunkBytes: chunk})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			for range chunks {
				pl, err := src.Next(p)
				if err != nil {
					t.Errorf("Next: %v", err)
					return
				}
				raw, _ := pl.Bytes()
				out.crc = crc32.Update(out.crc, crc32.IEEETable, raw)
				out.delivered += pl.Size()
			}
			p.Sleep(chunk * time.Second / 2e6) // half a chunk's transfer
			if st, ok := src.(*ClientStream); ok {
				check(st)
			}
			src.Close()
		})
		if err := sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		out.metrics, out.retries, out.fired, out.open = svc.Metrics(), c.Retries(), sim.Fired(), svc.OpenStreams()
		return out
	}
	got := run(chainForm, func(st *ClientStream) {
		if st.seq < 2 || st.state != inFlight {
			t.Errorf("at the close: stream #%d in state %d, want a resumed stream (#2 or later) with a chunk in flight", st.seq, st.state)
		}
	})
	want := run(processForm, nil)
	t.Logf("%d bytes delivered, %d out, %d throttles, %d retries, %d events", got.delivered, got.metrics.BytesOut, got.metrics.Throttled, got.retries, got.fired)
	if got.delivered != chunks*chunk || got.metrics.Throttled == 0 || got.retries == 0 {
		t.Errorf("delivered %d bytes (want %d) through %d throttles and %d retries: the script missed the resume",
			got.delivered, chunks*chunk, got.metrics.Throttled, got.retries)
	}
	if want := crc32.ChecksumIEEE(data[:got.delivered]); got.crc != want {
		t.Errorf("delivered bytes crc %08x, want the object's first %d bytes, %08x", got.crc, got.delivered, want)
	}
	if got.metrics.BytesOut != got.delivered+chunk {
		t.Errorf("BytesOut %d, want the %d delivered and the chunk in flight at the close", got.metrics.BytesOut, got.delivered)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("one stream object:  %+v\nthe process form: %+v", got, want)
	}
	if len(got.open) != 0 {
		t.Errorf("OpenStreams after the drain = %v, want none", got.open)
	}
}

// TestStreamIsNotReopenedWhileItRuns: an open into a stream whose
// producing side has an event pending would leave two chains of events
// on one object. startStream refuses, and the kernel reports the panic
// as the run's error.
func TestStreamIsNotReopenedWhileItRuns(t *testing.T) {
	sim, svc, _ := streamRig(t, fastCfg(), 50000)
	sim.Spawn("reader", func(p *des.Proc) {
		st, err := NewClient(svc).GetStream(p, "b", "k", 0, -1, StreamOptions{ChunkBytes: 10000})
		if err != nil {
			t.Errorf("GetStream: %v", err)
			return
		}
		_ = st.open(p, "b", "k", 0, -1, StreamOptions{})
	})
	err := sim.Run()
	if err == nil || !strings.Contains(err.Error(), "stream #1 opened again while its producing side runs") {
		t.Fatalf("sim = %v, want the re-open refused", err)
	}
}

// TestLiveStorageIsNeitherReclaimedNorReopened hands the storage of a
// list of streams whose producing sides still run back for another
// list: Reclaim refuses it and changes nothing, and GetStreams leaves it
// as it is for startStream, whose panic is the backstop for storage given
// back too early. Once the streams are read through, Reclaim takes it,
// and GetStreams opens into it again with the steps bound the first time.
func TestLiveStorageIsNeitherReclaimedNorReopened(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		sim, svc, data := streamRig(t, fastCfg(), 50000)
		keys := []string{"k", "k"}
		opts := StreamOptions{ChunkBytes: 10000}
		sim.Spawn("reader", func(p *des.Proc) {
			p.Sleep(time.Second) // after the setup's Put
			c := NewClient(svc)
			streams := make([]ClientStream, len(keys))
			if n, err := c.GetStreams(p, streams, "b", keys, 0, -1, opts); n != len(keys) || err != nil {
				t.Errorf("GetStreams: %d, %v", n, err)
				return
			}
			live := streams[1]
			if Reclaim(streams) {
				t.Error("Reclaim took storage whose producing sides run")
			}
			if streams[0].c != c || streams[1].seq != live.seq || streams[1].state != live.state {
				t.Errorf("Reclaim changed live storage: stream #%d in state %d, was #%d in %d",
					streams[1].seq, streams[1].state, live.seq, live.state)
			}
			if reopen {
				_, _ = c.GetStreams(p, streams, "b", keys, 0, -1, opts)
				t.Error("GetStreams opened into live storage")
				return
			}
			bound := [2]unsafe.Pointer{closureOf(streams[0].stepFn), closureOf(streams[1].stepFn)}
			for i := range streams {
				if got, err := drainStream(p, &streams[i], 0); err != nil || len(got) != len(data) {
					t.Errorf("stream %d: %d bytes, %v", i, len(got), err)
				}
				streams[i].Close()
			}
			if !Reclaim(streams) {
				t.Fatal("Reclaim refused streams read through")
			}
			if n, err := c.GetStreams(p, streams, "b", keys, 0, -1, opts); n != len(keys) || err != nil {
				t.Errorf("GetStreams into reclaimed storage: %d, %v", n, err)
			}
			for i := range streams {
				if bound[i] == nil || closureOf(streams[i].stepFn) != bound[i] {
					t.Errorf("stream %d bound its step again", i)
				}
				if got, err := drainStream(p, &streams[i], 0); err != nil || !bytes.Equal(got, data) {
					t.Errorf("reclaimed stream %d: %d bytes, %v", i, len(got), err)
				}
			}
		})
		err := sim.Run()
		if reopen {
			if err == nil || !strings.Contains(err.Error(), "stream #1 opened again while its producing side runs") {
				t.Fatalf("sim = %v, want the re-open of live storage refused", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if open := svc.OpenStreams(); len(open) != 0 {
			t.Errorf("streams left open: %v", open)
		}
	}
}

// closureOf returns the closure f is: two method values bound by one
// evaluation share it, two evaluations do not.
func closureOf(f func()) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&f)) }
