package objectstore

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// fastConfig removes throttling/latency noise so logic tests are exact.
func fastConfig() Config {
	return Config{
		RequestLatency:     0,
		PerConnBandwidth:   1e12,
		AggregateBandwidth: 0,
		ReadOpsPerSec:      1e9,
		WriteOpsPerSec:     1e9,
		OpsBurst:           1e9,
	}
}

// runSim executes fn as a process and fails the test on sim error.
func runSim(t *testing.T, svc *Service, fn func(p *des.Proc)) {
	t.Helper()
	svc.sim.Spawn("test", fn)
	if err := svc.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func newFast(t *testing.T) *Service {
	t.Helper()
	svc, err := New(des.New(1), fastConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func TestPutGetRoundtrip(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		if err := svc.CreateBucket(p, "b"); err != nil {
			t.Errorf("CreateBucket: %v", err)
		}
		want := []byte("the quick brown fox")
		if err := svc.Put(p, "b", "k", payload.Real(want), 0); err != nil {
			t.Errorf("Put: %v", err)
		}
		got, err := svc.Get(p, "b", "k", 0)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		b, ok := got.Bytes()
		if !ok || string(b) != string(want) {
			t.Errorf("Get = %q, want %q", b, want)
		}
	})
}

func TestGetMissingKey(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		_, err := svc.Get(p, "b", "nope", 0)
		var ke *KeyError
		if !errors.As(err, &ke) {
			t.Errorf("Get err = %v, want KeyError", err)
		}
		if ke != nil && (ke.Bucket != "b" || ke.Key != "nope") {
			t.Errorf("KeyError = %+v", ke)
		}
		if !IsNotFound(err) {
			t.Error("IsNotFound(KeyError) = false")
		}
	})
}

func TestMissingBucket(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		if err := svc.Put(p, "ghost", "k", payload.Sized(1), 0); !errors.Is(err, ErrNoSuchBucket) {
			t.Errorf("Put err = %v, want ErrNoSuchBucket", err)
		}
		if _, err := svc.Get(p, "ghost", "k", 0); !errors.Is(err, ErrNoSuchBucket) {
			t.Errorf("Get err = %v, want ErrNoSuchBucket", err)
		}
		if !IsNotFound(ErrNoSuchBucket) {
			t.Error("IsNotFound(ErrNoSuchBucket) = false")
		}
	})
}

func TestCreateBucketTwice(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		if err := svc.CreateBucket(p, "b"); !errors.Is(err, ErrBucketExists) {
			t.Errorf("second create = %v, want ErrBucketExists", err)
		}
	})
}

func TestDeleteAbsentKeySucceeds(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		if err := svc.Delete(p, "b", "never-was"); err != nil {
			t.Errorf("Delete absent key = %v, want nil (S3 semantics)", err)
		}
	})
}

func TestGetRange(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		_ = svc.Put(p, "b", "k", payload.Real([]byte("0123456789")), 0)
		part, err := svc.GetRange(p, "b", "k", 3, 4, 0)
		if err != nil {
			t.Errorf("GetRange: %v", err)
			return
		}
		b, _ := part.Bytes()
		if string(b) != "3456" {
			t.Errorf("GetRange = %q, want 3456", b)
		}
		if _, err := svc.GetRange(p, "b", "k", 8, 5, 0); err == nil {
			t.Error("out-of-range GetRange succeeded")
		}
	})
}

func TestHeadOmitsPayload(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		_ = svc.Put(p, "b", "k", payload.Real([]byte("abc")), 0)
		obj, err := svc.Head(p, "b", "k")
		if err != nil {
			t.Errorf("Head: %v", err)
			return
		}
		// The payload rides along for ETag only: no exported field holds it.
		payloadType := reflect.TypeOf((*payload.Payload)(nil)).Elem()
		for _, f := range reflect.VisibleFields(reflect.TypeOf(obj)) {
			if f.IsExported() && f.Type.Implements(payloadType) {
				t.Errorf("Head returned payload in field %s", f.Name)
			}
		}
		if obj.Key != "k" || obj.Size != 3 || obj.ETag() == "" {
			t.Errorf("Head metadata = %+v", obj)
		}
	})
}

func TestListPrefixAndPagination(t *testing.T) {
	cfg := fastConfig()
	cfg.ListPageSize = 3
	svc, err := New(des.New(1), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		for i := 0; i < 7; i++ {
			_ = svc.Put(p, "b", fmt.Sprintf("part/%02d", i), payload.Sized(1), 0)
		}
		_ = svc.Put(p, "b", "other/x", payload.Sized(1), 0)

		page, err := svc.List(p, "b", "part/", "", 0)
		if err != nil {
			t.Errorf("List: %v", err)
			return
		}
		if len(page.Keys) != 3 || !page.Truncated {
			t.Errorf("page1 = %+v, want 3 keys truncated", page)
		}
		var all []string
		startAfter := ""
		for {
			pg, err := svc.List(p, "b", "part/", startAfter, 0)
			if err != nil {
				t.Errorf("List: %v", err)
				return
			}
			all = append(all, pg.Keys...)
			if !pg.Truncated {
				break
			}
			startAfter = pg.Keys[len(pg.Keys)-1]
		}
		if len(all) != 7 {
			t.Errorf("drained %d keys, want 7: %v", len(all), all)
		}
		for i, k := range all {
			if k != fmt.Sprintf("part/%02d", i) {
				t.Errorf("keys not sorted: %v", all)
				break
			}
		}
	})
}

func TestRequestLatencyCharged(t *testing.T) {
	cfg := fastConfig()
	cfg.RequestLatency = 15 * time.Millisecond
	svc, err := New(des.New(1), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")                  // 15ms
		_ = svc.Put(p, "b", "k", payload.Sized(0), 0) // 15ms
		_, _ = svc.Get(p, "b", "k", 0)                // 15ms
		if got := p.Now(); got != 45*time.Millisecond {
			t.Errorf("elapsed = %v, want 45ms", got)
		}
	})
}

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	cfg := fastConfig()
	cfg.PerConnBandwidth = 100e6 // 100 MB/s
	svc, err := New(des.New(1), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		start := p.Now()
		_ = svc.Put(p, "b", "k", payload.Sized(200e6), 0) // 2s at 100MB/s
		if d := (p.Now() - start).Seconds(); math.Abs(d-2.0) > 0.01 {
			t.Errorf("200MB put took %.3fs, want ~2s", d)
		}
	})
}

func TestAggregateBandwidthShared(t *testing.T) {
	cfg := fastConfig()
	cfg.PerConnBandwidth = 100e6
	cfg.AggregateBandwidth = 200e6 // only 2 full-rate connections fit
	svc, err := New(des.New(1), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sim := svc.sim
	done := 0
	sim.Spawn("setup", func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("w%d", i)
			p.Spawn(name, func(w *des.Proc) {
				// 100MB each; 4 flows share 200MB/s => 50MB/s each => 2s.
				if err := svc.Put(w, "b", name, payload.Sized(100e6), 0); err != nil {
					t.Errorf("Put: %v", err)
				}
				done++
			})
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
	if d := sim.Now().Seconds(); math.Abs(d-2.0) > 0.05 {
		t.Fatalf("4x100MB over 200MB/s fabric took %.3fs, want ~2s", d)
	}
}

func TestOpsThrottleLimitsRequestRate(t *testing.T) {
	cfg := fastConfig()
	cfg.WriteOpsPerSec = 100
	cfg.OpsBurst = 1
	svc, err := New(des.New(1), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		for i := 0; i < 200; i++ {
			_ = svc.Put(p, "b", fmt.Sprintf("k%d", i), payload.Sized(0), 0)
		}
		if d := p.Now().Seconds(); d < 1.9 {
			t.Errorf("201 class A ops at 100/s took %.3fs, want >= ~2s", d)
		}
	})
}

// TestFlowCapOverridesPerConn puts under a flow cap below the
// per-connection ceiling, which it lowers, and under one above it, which
// leaves the ceiling as it is.
func TestFlowCapOverridesPerConn(t *testing.T) {
	cfg := fastConfig()
	cfg.PerConnBandwidth = 100e6
	svc, err := New(des.New(1), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		start := p.Now()
		_ = svc.Put(p, "b", "k", payload.Sized(100e6), 10e6) // capped to 10MB/s
		if d := (p.Now() - start).Seconds(); math.Abs(d-10.0) > 0.05 {
			t.Errorf("capped put took %.3fs, want ~10s", d)
		}
		start = p.Now()
		_ = svc.Put(p, "b", "k", payload.Sized(100e6), 1e9) // looser: still 100MB/s
		if d := (p.Now() - start).Seconds(); math.Abs(d-1.0) > 0.005 {
			t.Errorf("put capped above the per-connection ceiling took %.3fs, want ~1s", d)
		}
	})
}

func TestMetricsClassification(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")                             // A
		_ = svc.Put(p, "b", "k", payload.Real([]byte("xyz")), 0) // A, 3 in
		_, _ = svc.Get(p, "b", "k", 0)                           // B, 3 out
		_, _ = svc.Head(p, "b", "k")                             // B
		_, _ = svc.List(p, "b", "", "", 0)                       // A
		_ = svc.Delete(p, "b", "k")                              // delete
		m := svc.Metrics()
		if m.ClassAOps != 3 {
			t.Errorf("ClassAOps = %d, want 3", m.ClassAOps)
		}
		if m.ClassBOps != 2 {
			t.Errorf("ClassBOps = %d, want 2", m.ClassBOps)
		}
		if m.DeleteOps != 1 {
			t.Errorf("DeleteOps = %d, want 1", m.DeleteOps)
		}
		if m.BytesIn != 3 || m.BytesOut != 3 {
			t.Errorf("bytes = in %d out %d, want 3/3", m.BytesIn, m.BytesOut)
		}
		if m.TotalOps() != 5 {
			t.Errorf("TotalOps = %d, want 5", m.TotalOps())
		}
	})
}

func TestSizedPayloadFlowsThrough(t *testing.T) {
	svc := newFast(t)
	runSim(t, svc, func(p *des.Proc) {
		_ = svc.CreateBucket(p, "b")
		_ = svc.Put(p, "b", "k", payload.Sized(1<<33), 0) // 8 GiB, no RAM
		obj, err := svc.Head(p, "b", "k")
		if err != nil {
			t.Errorf("Head: %v", err)
			return
		}
		if obj.ETag() == "" {
			t.Error("sized payload has empty etag")
		}
		part, err := svc.GetRange(p, "b", "k", 1<<32, 1024, 0)
		if err != nil {
			t.Errorf("GetRange: %v", err)
			return
		}
		if part.Size() != 1024 {
			t.Errorf("range size = %d, want 1024", part.Size())
		}
	})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{RequestLatency: -time.Second, PerConnBandwidth: 1, ReadOpsPerSec: 1, WriteOpsPerSec: 1},
		{PerConnBandwidth: 0, ReadOpsPerSec: 1, WriteOpsPerSec: 1},
		{PerConnBandwidth: 1, ReadOpsPerSec: 0, WriteOpsPerSec: 1},
		{PerConnBandwidth: 1, ReadOpsPerSec: 1, WriteOpsPerSec: 1, FailureRate: 1.5},
	}
	for i, cfg := range bad {
		if _, err := New(des.New(1), cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := New(des.New(1), DefaultConfig()); err != nil {
		t.Errorf("DefaultConfig rejected: %v", err)
	}
}

func TestFailureInjectionDeterministic(t *testing.T) {
	run := func() int64 {
		cfg := fastConfig()
		cfg.FailureRate = 0.3
		svc, err := New(des.New(99), cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		svc.sim.Spawn("t", func(p *des.Proc) {
			_ = svc.CreateBucket(p, "b")
			for i := 0; i < 100; i++ {
				_ = svc.Put(p, "b", "k", payload.Sized(1), 0)
			}
		})
		if err := svc.sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		return svc.Metrics().Throttled
	}
	a, b := run(), run()
	if a == 0 {
		t.Fatal("failure injection produced zero throttles at 30% rate")
	}
	if a != b {
		t.Fatalf("throttles not deterministic: %d vs %d", a, b)
	}
}
