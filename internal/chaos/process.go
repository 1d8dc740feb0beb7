package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud"
)

// Process is a seeded stochastic fault-arrival model: each fault class
// arrives as an independent Poisson process at its configured rate
// over the deterministic DES clock. Generate expands the process into
// a concrete Plan, so a soak run gets realistic arrival statistics
// while staying exactly reproducible — the same seed and rates always
// yield the same Plan, and therefore (over the same workload) the same
// Fired() log, byte for byte.
type Process struct {
	// Seed drives every draw; two Processes differing only in Seed
	// generate diverging schedules.
	Seed int64
	// Horizon bounds the generated schedule: arrivals past it are
	// dropped. Callers typically set it to a multiple of the fault-free
	// makespan.
	Horizon time.Duration

	// Per-class Poisson arrival rates, events per hour of simulated
	// time. A rate of 0 disables the class. Classes draw from
	// independent seed-derived streams, so enabling one class does not
	// reshuffle another's arrivals.
	PreemptPerHour    float64
	CacheKillPerHour  float64
	BrownoutPerHour   float64
	ZoneOutagePerHour float64

	// CacheNodes bounds the node index drawn for each KillCacheNode
	// arrival (uniform over [0, CacheNodes); default 1: always node 0).
	CacheNodes int
	// BrownoutRate and BrownoutDuration parameterize each StoreBrownout
	// arrival (defaults 0.5 and 5s).
	BrownoutRate     float64
	BrownoutDuration time.Duration
	// Zones are the outage victims, drawn uniformly per ZoneOutage
	// arrival (default: the single pool cloud.DefaultZone).
	Zones []string
	// OutageRate and OutageDuration parameterize each ZoneOutage
	// arrival: the correlated store brownout severity (default 0.25;
	// negative: outages leave the store alone) and the window the zone
	// stays down (default 1m).
	OutageRate     float64
	OutageDuration time.Duration
}

// DefaultOutageRate and DefaultOutageDuration are what a ZoneOutage
// arrival gets when the Process leaves OutageRate / OutageDuration
// unset; the planner prices zone-outage exposure with the same two.
const (
	DefaultOutageRate     = 0.25
	DefaultOutageDuration = time.Minute
)

// classStream derives an independent RNG for one fault class from the
// process seed. The multiplier is the 64-bit golden-ratio constant
// (reinterpreted as a signed value), a standard seed-spreading mix.
func (pr Process) classStream(class int64) *rand.Rand {
	const mix = int64(-7046029254386353131) // 0x9e3779b97f4a7c15 as int64
	return rand.New(rand.NewSource(pr.Seed + class*mix))
}

// Generate expands the process into a validated Plan. The schedule is
// sorted by fire time with ties broken by a fixed class order, so the
// output is a pure function of the process parameters.
func (pr Process) Generate() (*Plan, error) {
	if pr.Horizon <= 0 {
		return nil, fmt.Errorf("chaos: process needs a positive Horizon, got %s", pr.Horizon)
	}
	if pr.CacheNodes < 1 {
		pr.CacheNodes = 1
	}
	if pr.BrownoutRate <= 0 {
		pr.BrownoutRate = 0.5
	}
	if pr.BrownoutDuration <= 0 {
		pr.BrownoutDuration = 5 * time.Second
	}
	if len(pr.Zones) == 0 {
		pr.Zones = []string{cloud.DefaultZone}
	}
	if pr.OutageRate < 0 {
		pr.OutageRate = 0
	} else if pr.OutageRate == 0 {
		pr.OutageRate = DefaultOutageRate
	}
	if pr.OutageDuration <= 0 {
		pr.OutageDuration = DefaultOutageDuration
	}

	plan := &Plan{}
	arrivals := func(class int64, perHour float64, mk func(at time.Duration, rng *rand.Rand) Event) {
		if perHour <= 0 {
			return
		}
		rng := pr.classStream(class)
		var t time.Duration
		for {
			gap := time.Duration(rng.ExpFloat64() / perHour * float64(time.Hour))
			t += gap
			if t > pr.Horizon {
				return
			}
			plan.Events = append(plan.Events, mk(t, rng))
		}
	}
	arrivals(1, pr.PreemptPerHour, func(at time.Duration, _ *rand.Rand) Event {
		return Event{At: at, Kind: PreemptVM}
	})
	arrivals(2, pr.CacheKillPerHour, func(at time.Duration, rng *rand.Rand) Event {
		return Event{At: at, Kind: KillCacheNode, Node: rng.Intn(pr.CacheNodes)}
	})
	arrivals(3, pr.BrownoutPerHour, func(at time.Duration, _ *rand.Rand) Event {
		return Event{At: at, Kind: StoreBrownout, Rate: pr.BrownoutRate, Duration: pr.BrownoutDuration}
	})
	arrivals(4, pr.ZoneOutagePerHour, func(at time.Duration, rng *rand.Rand) Event {
		return Event{At: at, Kind: ZoneOutage, Zone: pr.Zones[rng.Intn(len(pr.Zones))],
			Rate: pr.OutageRate, Duration: pr.OutageDuration}
	})
	// Stable sort: classes were appended in fixed order, so ties at the
	// same instant resolve identically run to run.
	sort.SliceStable(plan.Events, func(i, j int) bool {
		return plan.Events[i].At < plan.Events[j].At
	})
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}
