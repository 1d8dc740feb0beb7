package objectstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

func TestMultipartAssemblesInOrder(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		if err := svc.CreateBucket(p, "b"); err != nil {
			t.Fatalf("bucket: %v", err)
		}
		id, err := svc.CreateMultipartUpload(p, "b", "big")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// Upload out of order; completion must sort by part number.
		if err := svc.UploadPart(p, id, 2, payload.Real([]byte("world")), 0); err != nil {
			t.Fatalf("part 2: %v", err)
		}
		if err := svc.UploadPart(p, id, 1, payload.Real([]byte("hello ")), 0); err != nil {
			t.Fatalf("part 1: %v", err)
		}
		if err := svc.CompleteMultipartUpload(p, id); err != nil {
			t.Fatalf("complete: %v", err)
		}
		got, err := svc.Get(p, "b", "big", 0)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		b, _ := got.Bytes()
		if string(b) != "hello world" {
			t.Fatalf("assembled = %q", b)
		}
	})
}

func TestMultipartReplacePart(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		id, _ := svc.CreateMultipartUpload(p, "b", "k")
		_ = svc.UploadPart(p, id, 1, payload.Real([]byte("AAAA")), 0)
		_ = svc.UploadPart(p, id, 1, payload.Real([]byte("BB")), 0)
		if err := svc.CompleteMultipartUpload(p, id); err != nil {
			t.Fatalf("complete: %v", err)
		}
		got, _ := svc.Get(p, "b", "k", 0)
		b, _ := got.Bytes()
		if string(b) != "BB" {
			t.Fatalf("replaced part = %q, want BB", b)
		}
	})
}

func TestMultipartErrors(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		if _, err := svc.CreateMultipartUpload(p, "ghost", "k"); !errors.Is(err, ErrNoSuchBucket) {
			t.Errorf("create in ghost bucket err = %v", err)
		}
		if err := svc.UploadPart(p, "nope", 1, payload.Sized(1), 0); !errors.Is(err, ErrNoSuchUpload) {
			t.Errorf("part on unknown upload err = %v", err)
		}
		if err := svc.CompleteMultipartUpload(p, "nope"); !errors.Is(err, ErrNoSuchUpload) {
			t.Errorf("complete unknown err = %v", err)
		}
		id, _ := svc.CreateMultipartUpload(p, "b", "k")
		if err := svc.UploadPart(p, id, 0, payload.Sized(1), 0); err == nil {
			t.Error("part number 0 accepted")
		}
		if err := svc.CompleteMultipartUpload(p, id); !errors.Is(err, ErrNoParts) {
			t.Errorf("complete empty err = %v", err)
		}
		if err := svc.AbortMultipartUpload(p, id); err != nil {
			t.Errorf("abort: %v", err)
		}
		if err := svc.AbortMultipartUpload(p, id); err != nil {
			t.Errorf("double abort: %v", err)
		}
		if err := svc.CompleteMultipartUpload(p, id); !errors.Is(err, ErrNoSuchUpload) {
			t.Errorf("complete after abort err = %v", err)
		}
	})
}

// putParts is the buffered multipart upload: pl cut into parts of
// partSize bytes and uploaded conns at a time through the service's
// multipart calls, completed once every part is in. It is what the
// streaming writer's tests compare PutStream against.
func putParts(p *des.Proc, svc *Service, bkt, key string, pl payload.Payload, partSize int64, conns int) error {
	id, err := svc.CreateMultipartUpload(p, bkt, key)
	if err != nil {
		return err
	}
	sem := des.NewResource(p.Sim(), int64(conns))
	wg := des.NewWaitGroup(p.Sim())
	var firstErr error
	for num, off := 1, int64(0); off < pl.Size(); num, off = num+1, off+partSize {
		part, err := pl.Slice(off, min(partSize, pl.Size()-off))
		if err != nil {
			return err
		}
		wg.Add(1)
		p.Spawn(fmt.Sprintf("part-%d", num), func(up *des.Proc) {
			defer wg.Done()
			sem.Acquire(up, 1)
			defer sem.Release(1)
			if err := svc.UploadPart(up, id, num, part, 0); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	wg.Wait(p)
	if firstErr != nil {
		return firstErr
	}
	return svc.CompleteMultipartUpload(p, id)
}

func TestMultipartConcurrencyBeatsPerConnCeiling(t *testing.T) {
	// The whole point of multipart: 4 parallel parts over a 1 MB/s
	// per-connection ceiling move 4 MB in ~1s, not ~4s.
	sim := des.New(1)
	svc, err := New(sim, Config{
		RequestLatency:   0,
		PerConnBandwidth: 1e6,
		ReadOpsPerSec:    1e9,
		WriteOpsPerSec:   1e9,
		OpsBurst:         1e9,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var elapsed time.Duration
	svc.sim.Spawn("test", func(p *des.Proc) {
		c := NewClient(svc)
		_ = c.CreateBucket(p, "b")
		start := p.Now()
		if err := putParts(p, svc, "b", "big", payload.Sized(4e6), 1e6, 4); err != nil {
			t.Errorf("putParts: %v", err)
			return
		}
		elapsed = p.Now() - start
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if elapsed != time.Second {
		t.Fatalf("4 MB over 4 conns at 1 MB/s each took %v, want 1s", elapsed)
	}
}

// TestPropertyMultipartEqualsPut: for any data and part size, the
// multipart path must store exactly the bytes a plain PUT would.
func TestPropertyMultipartEqualsPut(t *testing.T) {
	f := func(data []byte, partSizeSeed uint16, conns uint8) bool {
		if len(data) == 0 {
			return true
		}
		partSize := int64(partSizeSeed%512) + 1
		svc := newFast(t)
		ok := true
		runSim(t, svc, func(p *des.Proc) {
			c := NewClient(svc)
			_ = c.CreateBucket(p, "b")
			if err := putParts(p, svc, "b", "mpu", payload.Real(data), partSize, int(conns%8)+1); err != nil {
				ok = false
				return
			}
			if err := c.Put(p, "b", "plain", payload.Real(data)); err != nil {
				ok = false
				return
			}
			a, err := c.Get(p, "b", "mpu")
			if err != nil {
				ok = false
				return
			}
			b, err := c.Get(p, "b", "plain")
			if err != nil {
				ok = false
				return
			}
			ab, _ := a.Bytes()
			bb, _ := b.Bytes()
			ok = bytes.Equal(ab, bb) && bytes.Equal(ab, data)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMultipartUploadPartAfterCompleteFails(t *testing.T) {
	// Complete retires the upload ID, so a straggling part upload —
	// the PutStream writer's failure window — must surface
	// ErrNoSuchUpload instead of silently mutating the final object.
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		id, err := svc.CreateMultipartUpload(p, "b", "k")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := svc.UploadPart(p, id, 1, payload.Real([]byte("part one")), 0); err != nil {
			t.Fatalf("part: %v", err)
		}
		if err := svc.CompleteMultipartUpload(p, id); err != nil {
			t.Fatalf("complete: %v", err)
		}
		if err := svc.UploadPart(p, id, 2, payload.Real([]byte("late")), 0); !errors.Is(err, ErrNoSuchUpload) {
			t.Errorf("part after complete err = %v, want ErrNoSuchUpload", err)
		}
	})
}
