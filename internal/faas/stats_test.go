package faas

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

func act(d time.Duration, cold, straggler bool, err error) Activation {
	return Activation{
		Start:     time.Second,
		End:       time.Second + d,
		Cold:      cold,
		Straggler: straggler,
		BilledGB:  d.Seconds() * 2,
		Err:       err,
	}
}

func TestSummarize(t *testing.T) {
	var acts []Activation
	for i := 1; i <= 100; i++ {
		acts = append(acts, act(time.Duration(i)*time.Millisecond, i%4 == 0, i%10 == 0, nil))
	}
	s := Summarize(acts)
	if s.Count != 100 || s.Cold != 25 || s.Stragglers != 10 || s.Failed != 0 {
		t.Fatalf("counts = %+v", s)
	}
	if s.P50 != 50*time.Millisecond {
		t.Errorf("P50 = %v, want 50ms", s.P50)
	}
	if s.P95 != 95*time.Millisecond {
		t.Errorf("P95 = %v, want 95ms", s.P95)
	}
	if s.P99 != 99*time.Millisecond {
		t.Errorf("P99 = %v, want 99ms", s.P99)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", s.Max)
	}
}

func TestSummarizeExcludesFailedFromLatency(t *testing.T) {
	acts := []Activation{
		act(10*time.Millisecond, true, false, nil),
		act(0, true, false, errors.New("crash")),
	}
	s := Summarize(acts)
	if s.Failed != 1 {
		t.Fatalf("Failed = %d", s.Failed)
	}
	if s.P50 != 10*time.Millisecond || s.Max != 10*time.Millisecond {
		t.Fatalf("latency stats include failed attempts: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.P50 != 0 || s.Max != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeAllFailed(t *testing.T) {
	acts := []Activation{act(0, true, false, errors.New("x"))}
	s := Summarize(acts)
	if s.Failed != 1 || s.P50 != 0 {
		t.Fatalf("all-failed summary = %+v", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// ramp(n) is 1..n, so a percentile's value is its 1-based rank.
	ramp := func(n int) []time.Duration {
		durs := make([]time.Duration, n)
		for i := range durs {
			durs[i] = time.Duration(i + 1)
		}
		return durs
	}
	cases := []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{0, 0.5, 0},
		{1, 0.01, 1}, {1, 0.5, 1}, {1, 1.0, 1},
		{2, 0.5, 1}, {2, 0.51, 2}, {2, 0.99, 2},
		{4, 0.25, 1}, {4, 0.5, 2}, {4, 0.75, 3}, {4, 1.0, 4}, {4, 0.01, 1},
		// Where nearest rank, ceil(q*n), and the floor(q*(n-1))+1
		// convention the gateway experiment used to apply part ways.
		{10, 0.5, 5}, {10, 0.99, 10}, {101, 0.99, 100},
		{687, 0.99, 681}, {4961, 0.99, 4912}, {4961, 0.5, 2481},
	}
	for _, tc := range cases {
		if got := Percentile(ramp(tc.n), tc.q); got != tc.want {
			t.Errorf("Percentile(1..%d, %g) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Summarize([]Activation{act(time.Second, true, true, nil)})
	out := s.String()
	for _, want := range []string{"1 cold", "1 stragglers", "p50 1s", "GB-s"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeFromPlatformLog(t *testing.T) {
	sim, pf := faultRig(t, 3, func(c *Config) {
		c.StragglerRate = 0.3
		c.StragglerSlowdown = 4
	})
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		compute(ctx, 100*time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	sim.Spawn("driver", func(p *des.Proc) {
		inputs := make([]any, 20)
		_, _ = pf.MapSync(p, "f", inputs, InvokeOptions{})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	s := Summarize(pf.Activations())
	if s.Count != 20 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Stragglers == 0 {
		t.Fatal("no stragglers in summary")
	}
	// Stragglers run 4x the 100ms baseline: the max must reflect it.
	if s.Max < 350*time.Millisecond {
		t.Fatalf("Max = %v, want ~400ms straggler tail", s.Max)
	}
	if s.P50 > 150*time.Millisecond {
		t.Fatalf("P50 = %v, want ~100ms body", s.P50)
	}
}
