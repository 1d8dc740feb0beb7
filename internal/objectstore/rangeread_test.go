package objectstore

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// readRange runs one ReadRange against a fresh rig and returns the
// payload (nil on error) plus the error.
func readRange(t *testing.T, cfg Config, size int64, off, n int64, retries int) (payload.Payload, error, []byte) {
	t.Helper()
	sim, svc, data := streamRig(t, cfg, int(size))
	var (
		out    payload.Payload
		outErr error
	)
	sim.Spawn("read", func(p *des.Proc) {
		c := NewClient(svc)
		if retries > 0 {
			c.MaxRetries = retries
		}
		out, outErr = c.ReadRange(p, "b", "k", off, n)
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	return out, outErr, data
}

// TestReadRangeExactBytes: the returned payload is byte-for-byte the
// requested window, across multiple stream chunks.
func TestReadRangeExactBytes(t *testing.T) {
	cfg := fastCfg()
	size := int64(3*DefaultStreamChunk + 1234)
	off, n := int64(DefaultStreamChunk-7), int64(DefaultStreamChunk+99)
	out, err, data := readRange(t, cfg, size, off, n, 0)
	if err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	got, ok := out.Bytes()
	if !ok {
		t.Fatal("range of a real object is not real bytes")
	}
	if !bytes.Equal(got, data[off:off+n]) {
		t.Fatalf("range bytes differ: got %d bytes, want %d at [%d,%d)", len(got), n, off, off+n)
	}
}

// TestReadRangeClampsPastEOF: overhanging and fully-past-EOF ranges
// clamp instead of erroring, and n < 0 reads through the end.
func TestReadRangeClampsPastEOF(t *testing.T) {
	cfg := fastCfg()
	const size = 10000
	cases := []struct {
		name     string
		off, n   int64
		wantOff  int64
		wantSize int64
	}{
		{"overhang", size - 100, 500, size - 100, 100},
		{"at-eof", size, 10, 0, 0},
		{"past-eof", size + 5000, 10, 0, 0},
		{"open-ended", 100, -1, 100, size - 100},
		{"negative-off", -50, 60, 0, 60},
		// off+n wraps past MaxInt64: the range still ends at EOF.
		{"max-n", 3, math.MaxInt64, 3, size - 3},
		{"max-n-from-zero", 0, math.MaxInt64, 0, size},
		{"max-n-negative-off", -50, math.MaxInt64, 0, size},
		{"max-n-past-eof", size + 5000, math.MaxInt64, 0, 0},
		{"near-max-n", 3, math.MaxInt64 - 5, 3, size - 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err, data := readRange(t, cfg, size, tc.off, tc.n, 0)
			if err != nil {
				t.Fatalf("ReadRange: %v", err)
			}
			if out.Size() != tc.wantSize {
				t.Fatalf("size = %d, want %d", out.Size(), tc.wantSize)
			}
			if tc.wantSize > 0 {
				got, _ := out.Bytes()
				if !bytes.Equal(got, data[tc.wantOff:tc.wantOff+tc.wantSize]) {
					t.Fatal("clamped range bytes differ")
				}
			}
		})
	}
}

// TestReadRangeSurvivesThrottles: with an injected failure rate the
// chunked transfer resumes mid-body under the shared retry budget and
// still delivers exact bytes.
func TestReadRangeSurvivesThrottles(t *testing.T) {
	cfg := fastCfg()
	cfg.FailureRate = 0.15
	size := int64(4 * DefaultStreamChunk)
	out, err, data := readRange(t, cfg, size, 1000, size-2000, 1000)
	if err != nil {
		t.Fatalf("ReadRange under 15%% throttling: %v", err)
	}
	got, _ := out.Bytes()
	if !bytes.Equal(got, data[1000:size-1000]) {
		t.Fatal("throttled range bytes differ")
	}
}

// TestReadRangeRetryBudgetShared: the stream leg exhausts the one
// MaxRetries budget under a hostile failure rate instead of retrying
// forever — the same ErrSlowDown surfacing GetStream documents.
func TestReadRangeRetryBudgetShared(t *testing.T) {
	cfg := fastCfg()
	cfg.FailureRate = 0.97
	_, err, _ := readRange(t, cfg, 4*DefaultStreamChunk, 0, -1, 3)
	if err == nil {
		t.Fatal("ReadRange survived 97% failure rate with 3 retries")
	}
	if !errors.Is(err, ErrSlowDown) {
		t.Fatalf("error = %v, want retries-exhausted ErrSlowDown", err)
	}
}
