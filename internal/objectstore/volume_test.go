package objectstore

import (
	"math"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

func TestStoredVolumeIntegral(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		if err := svc.Put(p, "b", "k", payload.Sized(1000), 0); err != nil {
			t.Fatalf("put: %v", err)
		}
		p.Sleep(10 * time.Second)
		// 1000 bytes for 10 s.
		if got := svc.Metrics().ByteSeconds; math.Abs(got-10000) > 1e-9 {
			t.Fatalf("ByteSeconds after hold = %g, want 10000", got)
		}
		if err := svc.Delete(p, "b", "k"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		p.Sleep(time.Hour)
		// Nothing stored: the integral must not grow.
		if got := svc.Metrics().ByteSeconds; math.Abs(got-10000) > 1e-9 {
			t.Fatalf("ByteSeconds after delete = %g, want 10000", got)
		}
		if svc.StoredBytes() != 0 {
			t.Fatalf("StoredBytes = %d", svc.StoredBytes())
		}
	})
}

func TestStoredVolumeReplace(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		_ = svc.Put(p, "b", "k", payload.Sized(1000), 0)
		// Replace with a smaller object: volume drops, not doubles.
		_ = svc.Put(p, "b", "k", payload.Sized(400), 0)
		if svc.StoredBytes() != 400 {
			t.Fatalf("StoredBytes after replace = %d, want 400", svc.StoredBytes())
		}
	})
}

func TestStoredVolumeMultipart(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		c := NewClient(svc)
		_ = c.CreateBucket(p, "b")
		if err := putParts(p, svc, "b", "big", payload.Sized(10_000), 3000, 2); err != nil {
			t.Fatalf("putParts: %v", err)
		}
		if svc.StoredBytes() != 10_000 {
			t.Fatalf("StoredBytes = %d, want 10000", svc.StoredBytes())
		}
	})
}
