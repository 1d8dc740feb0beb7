package objectstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

func TestDeleteBatch(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		for i := 0; i < 5; i++ {
			_ = svc.Put(p, "b", fmt.Sprintf("k%d", i), payload.Sized(10), 0)
		}
		// Mix present and absent keys.
		if err := svc.DeleteBatch(p, "b", []string{"k0", "k1", "ghost"}); err != nil {
			t.Fatalf("DeleteBatch: %v", err)
		}
		page, err := svc.List(p, "b", "", "", 0)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(page.Keys) != 3 {
			t.Fatalf("remaining = %v", page.Keys)
		}
		if svc.StoredBytes() != 30 {
			t.Fatalf("StoredBytes = %d", svc.StoredBytes())
		}
	})
}

func TestDeleteBatchLimits(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		big := make([]string, 1001)
		for i := range big {
			big[i] = fmt.Sprintf("k%d", i)
		}
		if err := svc.DeleteBatch(p, "b", big); err == nil {
			t.Error("1001 keys accepted")
		}
		if err := svc.DeleteBatch(p, "ghost", []string{"k"}); !errors.Is(err, ErrNoSuchBucket) {
			t.Errorf("ghost bucket err = %v", err)
		}
	})
}

func TestDeleteBatchOneLatency(t *testing.T) {
	sim := des.New(1)
	svc, err := New(sim, Config{
		RequestLatency:   10 * time.Millisecond,
		PerConnBandwidth: 1e12,
		ReadOpsPerSec:    1e9,
		WriteOpsPerSec:   1e9,
		OpsBurst:         1e9,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	svc.sim.Spawn("test", func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		keys := make([]string, 100)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
			_ = svc.Put(p, "b", keys[i], payload.Sized(1), 0)
		}
		start := p.Now()
		if err := svc.DeleteBatch(p, "b", keys); err != nil {
			t.Errorf("DeleteBatch: %v", err)
			return
		}
		if got := p.Now() - start; got != 10*time.Millisecond {
			t.Errorf("batch of 100 took %v, want one 10ms request", got)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}
