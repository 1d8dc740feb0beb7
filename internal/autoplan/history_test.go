package autoplan

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

func TestHistoryFactors(t *testing.T) {
	h := NewHistory()
	if f := h.TimeFactor(ObjectStorage); f != 1 {
		t.Fatalf("empty history time factor = %f", f)
	}
	// Two observations: actual 2x and 8x the prediction. Geometric
	// mean: sqrt(16) = 4.
	h.Record(Observation{
		Strategy:      ObjectStorage,
		PredictedTime: 10 * time.Second, ActualTime: 20 * time.Second,
		PredictedUSD: 0.01, ActualUSD: 0.02,
	})
	h.Record(Observation{
		Strategy:      ObjectStorage,
		PredictedTime: 10 * time.Second, ActualTime: 80 * time.Second,
		PredictedUSD: 0.01, ActualUSD: 0.08,
	})
	if f := h.TimeFactor(ObjectStorage); math.Abs(f-4) > 1e-9 {
		t.Errorf("time factor = %f, want 4", f)
	}
	if f := h.CostFactor(ObjectStorage); math.Abs(f-4) > 1e-9 {
		t.Errorf("cost factor = %f, want 4", f)
	}
	// Other families are untouched.
	if f := h.TimeFactor(VMStaged); f != 1 {
		t.Errorf("vm time factor = %f, want 1", f)
	}
	if h.Len() != 2 || h.Observations(ObjectStorage) != 2 {
		t.Errorf("counts: len=%d obs=%d", h.Len(), h.Observations(ObjectStorage))
	}
	if !strings.Contains(h.String(), "object-storage") {
		t.Errorf("String: %q", h.String())
	}
}

func TestHistoryClampsAndIgnoresDegenerate(t *testing.T) {
	h := NewHistory()
	// A 1000x blowout clamps at the factor ceiling.
	h.Record(Observation{
		Strategy:      CacheBacked,
		PredictedTime: time.Second, ActualTime: 1000 * time.Second,
	})
	if f := h.TimeFactor(CacheBacked); f != maxFactor {
		t.Errorf("clamped factor = %f, want %f", f, maxFactor)
	}
	// Non-positive pairs carry no signal.
	h.Record(Observation{Strategy: VMStaged, PredictedTime: 0, ActualTime: time.Second})
	h.Record(Observation{Strategy: VMStaged, PredictedTime: time.Second, ActualTime: 0})
	if h.Observations(VMStaged) != 0 {
		t.Errorf("degenerate observations recorded: %d", h.Observations(VMStaged))
	}
	// Nil receivers are inert.
	var nilH *History
	nilH.Record(Observation{Strategy: VMStaged})
	if f := nilH.TimeFactor(VMStaged); f != 1 {
		t.Errorf("nil history factor = %f", f)
	}
	if nilH.Len() != 0 {
		t.Errorf("nil history len = %d", nilH.Len())
	}
}

// TestHistoryRedirectsPlan: a measured blowout on the fastest family
// flips the next decision to the runner-up.
func TestHistoryRedirectsPlan(t *testing.T) {
	env := Env{
		Store: shuffle.StoreProfile{
			RequestLatency:   10 * time.Millisecond,
			PerConnBandwidth: 100e6,
			ReadOpsPerSec:    3000,
			WriteOpsPerSec:   1500,
		},
		Faas:   faas.Config{MemoryMB: 2048},
		Prices: billing.Default(),
	}
	wl := Workload{PlanInput: shuffle.PlanInput{DataBytes: 4e9, MaxWorkers: 64, WorkerMemBytes: 2 << 30, Startup: time.Second}}

	base, err := Plan(wl, env, Objective{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if base.Chosen.ModelTime != base.Chosen.Time {
		t.Fatalf("uncalibrated decision scaled: %v vs %v", base.Chosen.ModelTime, base.Chosen.Time)
	}

	// Record the chosen family as 4x slower than modeled; replanning
	// must avoid it (every candidate in that family scales together).
	h := NewHistory()
	h.Record(Observation{
		Strategy:      base.Chosen.Strategy,
		PredictedTime: base.Chosen.ModelTime,
		ActualTime:    4 * base.Chosen.ModelTime,
	})
	env.History = h
	redone, err := Plan(wl, env, Objective{})
	if err != nil {
		t.Fatalf("Plan with history: %v", err)
	}
	if redone.Chosen.Strategy == base.Chosen.Strategy {
		t.Errorf("4x measured blowout did not redirect the plan from %v", base.Chosen.Strategy)
	}
	// Calibrated prediction = model x factor for the penalized family.
	for _, c := range redone.Candidates {
		if c.Feasible && c.Strategy == base.Chosen.Strategy {
			want := time.Duration(float64(c.ModelTime) * h.TimeFactor(c.Strategy))
			if diff := (c.Time - want).Seconds(); math.Abs(diff) > 1e-6 {
				t.Errorf("candidate %v time %v, want %v", c.Config(), c.Time, want)
			}
		}
	}
}
