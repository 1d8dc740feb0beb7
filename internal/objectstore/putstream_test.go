package objectstore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

func TestPutStreamRequestsArithmetic(t *testing.T) {
	cases := []struct {
		size, part, want int64
	}{
		{0, 1024, 1},    // empty: one plain PUT
		{1024, 1024, 1}, // exactly one part: plain PUT
		{1025, 1024, 4}, // create + 2 parts + complete
		{4096, 1024, 6}, // create + 4 parts + complete
		{10 << 20, 0, 2 + (10<<20+DefaultStreamChunk-1)/DefaultStreamChunk}, // default granularity
	}
	for _, c := range cases {
		if got := PutStreamRequests(c.size, c.part); got != c.want {
			t.Errorf("PutStreamRequests(%d, %d) = %d, want %d", c.size, c.part, got, c.want)
		}
	}
}

func TestPutStreamMultipartRoundtrip(t *testing.T) {
	svc := newFast(t)
	data := bytes.Repeat([]byte("abcdefgh"), 512) // 4 KB
	before := svc.Metrics()
	runSim(t, svc, func(p *des.Proc) {
		c := NewClient(svc)
		_ = c.CreateBucket(p, "b")
		w := c.PutStream(p, "b", "out", PutStreamOptions{PartBytes: 1024})
		for off := 0; off < len(data); off += 1024 {
			if err := w.Write(p, payload.Real(data[off:off+1024])); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		got, err := c.Get(p, "b", "out")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		b, _ := got.Bytes()
		if !bytes.Equal(b, data) {
			t.Fatal("roundtrip mismatch")
		}
	})
	// Exact-part-size writes make the simulated request count match the
	// predictors' arithmetic: create + 4 parts + complete.
	want := PutStreamRequests(int64(len(data)), 1024)
	if got := svc.Metrics().ClassAOps - before.ClassAOps - 1; /* CreateBucket */ got != want {
		t.Fatalf("class A ops = %d, want %d (PutStreamRequests)", got, want)
	}
}

func TestPutStreamSinglePartDegeneratesToPut(t *testing.T) {
	// Output below one part must cost exactly what the buffered path
	// costs: one plain PUT, no multipart requests.
	svc := newFast(t)
	before := svc.Metrics()
	runSim(t, svc, func(p *des.Proc) {
		c := NewClient(svc)
		_ = c.CreateBucket(p, "b")
		w := c.PutStream(p, "b", "small", PutStreamOptions{PartBytes: 1024})
		if err := w.Write(p, payload.Real([]byte("tiny output"))); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		head, err := c.Head(p, "b", "small")
		if err != nil {
			t.Fatalf("head: %v", err)
		}
		if head.Size != int64(len("tiny output")) {
			t.Fatalf("size = %d", head.Size)
		}
	})
	if got := svc.Metrics().ClassAOps - before.ClassAOps - 1; /* CreateBucket */ got != 1 {
		t.Fatalf("class A ops = %d, want 1 (plain PUT)", got)
	}
}

func TestPutStreamAbortBeforeFirstPartIsRequestFree(t *testing.T) {
	// The sized-payload reduce path aborts the writer before any part
	// sealed and issues its own plain PUT; the abort must not have
	// opened a multipart upload or cost a request.
	svc := newFast(t)
	before := svc.Metrics()
	runSim(t, svc, func(p *des.Proc) {
		c := NewClient(svc)
		_ = c.CreateBucket(p, "b")
		w := c.PutStream(p, "b", "never", PutStreamOptions{PartBytes: 1 << 20})
		if err := w.Write(p, payload.Real([]byte("below one part"))); err != nil {
			t.Fatalf("write: %v", err)
		}
		w.Abort(p)
		if err := w.Write(p, payload.Real([]byte("x"))); err != ErrStreamClosed {
			t.Errorf("write after abort err = %v, want ErrStreamClosed", err)
		}
		if _, err := c.Head(p, "b", "never"); err == nil {
			t.Error("aborted writer left an object behind")
		}
	})
	if got := svc.Metrics().ClassAOps - before.ClassAOps - 1; /* CreateBucket */ got != 0 {
		t.Fatalf("class A ops = %d, want 0 (abort before first seal is request-free)", got)
	}
}

// TestPutStreamOverlapsProducer is the point of the write-side stream:
// a producer paying CPU between parts finishes in ~max(produce,
// upload), not their sum, because sealed parts upload concurrently
// with the next part's production.
func TestPutStreamOverlapsProducer(t *testing.T) {
	const parts = 8
	const partSize = 64 << 10           // 64 ms upload at 1 MB/s
	produceCPU := 60 * time.Millisecond // ~comparable production leg
	part := bytes.Repeat([]byte("x"), partSize)

	run := func(streamed bool) time.Duration {
		sim := des.New(3)
		svc, err := New(sim, fastCfg()) // 1 MB/s: uploads take visible virtual time
		if err != nil {
			t.Fatalf("service: %v", err)
		}
		var elapsed time.Duration
		sim.Spawn("producer", func(p *des.Proc) {
			c := NewClient(svc)
			_ = c.CreateBucket(p, "b")
			start := p.Now()
			if streamed {
				w := c.PutStream(p, "b", "out", PutStreamOptions{PartBytes: partSize})
				for i := 0; i < parts; i++ {
					p.Sleep(produceCPU)
					if err := w.Write(p, payload.Real(part)); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
				if err := w.Close(p); err != nil {
					t.Errorf("close: %v", err)
					return
				}
			} else {
				buf := make([]byte, 0, parts*partSize)
				for i := 0; i < parts; i++ {
					p.Sleep(produceCPU)
					buf = append(buf, part...)
				}
				if err := putParts(p, svc, "b", "out", payload.Real(buf), partSize, DefaultPutConns); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
			elapsed = p.Now() - start
		})
		if err := sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		return elapsed
	}

	streamed := run(true)
	buffered := run(false)
	if streamed >= buffered {
		t.Fatalf("streamed PUT %v not faster than produce-then-upload %v", streamed, buffered)
	}
	// The buffered upload leg is 4 rounds of 2 concurrent 64 KB parts
	// (~262 ms at 1 MB/s); streaming still pays the final round after
	// the last Write, so expect roughly three rounds (~196 ms) hidden.
	saved := buffered - streamed
	if min := 150 * time.Millisecond; saved < min {
		t.Fatalf("streamed PUT hides only %v of the upload leg (streamed %v, buffered %v)",
			saved, streamed, buffered)
	}
	t.Logf("put: streamed %v vs buffered %v", streamed, buffered)
}

// TestPartUploadNamePinned pins the name a panic report gives a part
// upload's process: puts-part-<n>. The writer seals twelve parts, and
// the twelfth finds the writer's client gone when its process starts.
func TestPartUploadNamePinned(t *testing.T) {
	svc := newFast(t)
	svc.sim.Spawn("writer", func(p *des.Proc) {
		c := NewClient(svc)
		_ = c.CreateBucket(p, "b")
		w := c.PutStream(p, "b", "out", PutStreamOptions{PartBytes: 1024})
		for i := 0; i < 12; i++ {
			if err := w.Write(p, payload.Sized(1024)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		w.c = nil
		p.Park()
	})
	err := svc.sim.Run()
	var pe *des.PanicError
	if !errors.As(err, &pe) || pe.Proc != "puts-part-12" {
		t.Fatalf("run: %v, want process puts-part-12 to panic", err)
	}
}
