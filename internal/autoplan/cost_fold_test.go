package autoplan

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// TestCacheFoldMatchesRetiredPredictor compares predictCache, now a wave
// list priced from the fold, with the retired closed form
// (cost_oracle_test.go) over random profiles, volumes, worker counts,
// placements and failure priors.
//
// Time is allowed 1 ns and cost one part in 1e12: the fold adds a wave
// up as (stream + write + requests + latency) + sort where the closed
// form interleaved the sort after the stream, and adds the two waves
// before the startup rather than after it. Each is one re-association
// of a float sum of seconds, an error near 1e-15 s, which the single
// truncation to nanoseconds turns into at most one unit. Everything
// else (sizing, feasibility, reasons) must be identical.
func TestCacheFoldMatchesRetiredPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Pow(hi/lo, rng.Float64())
	}
	moved, feasible := 0, 0
	for i := 0; i < 20000; i++ {
		env := Env{
			Store: shuffle.StoreProfile{
				RequestLatency:   time.Duration(logUniform(1e5, 1e8)),
				PerConnBandwidth: logUniform(1e6, 1e10),
				ReadOpsPerSec:    logUniform(10, 1e7),
				WriteOpsPerSec:   logUniform(10, 1e7),
			},
			Faas:     faas.Config{MemoryMB: 128 << rng.Intn(6)},
			Prices:   billing.Default(),
			HasCache: true,
			Cache: memcache.Config{
				NodeMemoryBytes:  int64(logUniform(1e8, 1e11)),
				RequestLatency:   time.Duration(logUniform(1e4, 1e7)),
				PerConnBandwidth: logUniform(1e7, 1e10),
				NodeBandwidth:    logUniform(1e8, 1e11),
				NodeOpsPerSec:    logUniform(1e3, 1e6),
				ProvisionTime:    time.Duration(logUniform(1e8, 3e11)),
				NodeHourlyUSD:    logUniform(0.01, 5),
			},
			Zones:        1 + rng.Intn(4),
			CrossZoneRTT: time.Duration(logUniform(1e5, 1e7)),
		}
		if rng.Intn(3) > 0 {
			env.Store.AggregateBandwidth = logUniform(1e8, 1e12)
		}
		switch rng.Intn(4) {
		case 0:
			env.CacheStandingNodes = 1 + rng.Intn(8)
		case 1:
			env.CacheMaxNodes = 1 + rng.Intn(8)
		}
		if rng.Intn(2) == 0 {
			env.ZoneOutagePerHour = logUniform(0.01, 60)
		}
		if rng.Intn(2) == 0 {
			// Once a brownout rate the planner no longer prices; drawn
			// still, so the draws after it stay as recorded.
			logUniform(0.1, 60)
		}
		env = env.withDefaults()
		wl := Workload{PlanInput: shuffle.PlanInput{
			DataBytes: int64(logUniform(1e6, 1e11)),
			Startup:   time.Duration(rng.Int63n(int64(3 * time.Second))),
		}}
		if rng.Intn(4) > 0 {
			wl.PartitionBps, wl.MergeBps = logUniform(1e6, 1e9), logUniform(1e6, 1e9)
		}
		wl.PlanInput = wl.PlanInput.WithDefaults()
		w := 1 + rng.Intn(256)
		multiZone := env.Zones > 1 && rng.Intn(2) == 0

		got, want := predictCache(w, multiZone, wl, env), oraclePredictCache(w, multiZone, wl, env)
		if want.Feasible {
			feasible++
		}
		dt := got.Time - want.Time
		if dt != 0 {
			moved++
		}
		if dt < -1 || dt > 1 || math.Abs(got.CostUSD-want.CostUSD) > 1e-12*math.Abs(want.CostUSD) {
			t.Fatalf("case %d (w=%d multiZone=%v %+v %+v):\n got  %v $%.15g\n want %v $%.15g",
				i, w, multiZone, wl, env, got.Time, got.CostUSD, want.Time, want.CostUSD)
		}
		got.Time, got.CostUSD = want.Time, want.CostUSD
		if got != want {
			t.Fatalf("case %d: candidate differs beyond its numbers:\n got  %+v\n want %+v", i, got, want)
		}
	}
	if feasible < 10000 {
		t.Errorf("only %d of 20000 cases feasible: the comparison is mostly vacuous", feasible)
	}
	t.Logf("%d feasible cases, %d moved by 1 ns", feasible, moved)
}
