package autoplan

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// randWorkload derives an arbitrary-but-valid workload from fuzz
// inputs: volumes from tens of MB to ~1 TB, worker caps from 16 to
// 1024, throughputs from 10 to 300 MB/s.
func randWorkload(vol uint32, cap uint8, part, merge uint8) Workload {
	return Workload{PlanInput: shuffle.PlanInput{
		DataBytes:      64e6 + int64(vol)*256, // 64 MB .. ~1.1 TB
		MaxWorkers:     16 + int(cap)*4,
		WorkerMemBytes: 2048 << 20,
		PartitionBps:   10e6 + float64(part)*1.1e6,
		MergeBps:       10e6 + float64(merge)*1.1e6,
	}}
}

func randObjective(sel uint8, bound uint16) Objective {
	switch sel % 3 {
	case 1:
		return Objective{Goal: MinCost}
	case 2:
		return Objective{Goal: MinCostWithin, TimeBound: time.Duration(1+int(bound)%600) * time.Second}
	default:
		return Objective{Goal: MinTime}
	}
}

// TestPropertyChosenNeverDominated: for random workloads and
// objectives, the auto-selected plan's predicted objective value is <=
// every enumerated feasible candidate's, and no feasible candidate
// strictly dominates it (better time AND better cost).
func TestPropertyChosenNeverDominated(t *testing.T) {
	env := flipEnv()
	f := func(vol uint32, cap, part, merge, sel uint8, bound uint16) bool {
		wl := randWorkload(vol, cap, part, merge)
		obj := randObjective(sel, bound)
		dec, err := Plan(wl, env, obj)
		if err != nil {
			// Some random workloads are genuinely unplannable (memory
			// floor above the cap with nothing that fits); that is not
			// a property violation.
			return true
		}
		chosenP, chosenS := objectiveValue(dec.Chosen, dec.Objective)
		for _, c := range dec.Candidates {
			if !c.Feasible {
				continue
			}
			if c.Time < dec.Chosen.Time && c.CostUSD < dec.Chosen.CostUSD {
				t.Logf("chosen %v (%s, %v/$%.6f) strictly dominated by %v (%s, %v/$%.6f)",
					dec.Chosen.Strategy, dec.Chosen.Config(), dec.Chosen.Time, dec.Chosen.CostUSD,
					c.Strategy, c.Config(), c.Time, c.CostUSD)
				return false
			}
			p, s := objectiveValue(c, dec.Objective)
			if p < chosenP || (p == chosenP && s < chosenS) {
				// The fallback path (impossible MinCostWithin bound)
				// legitimately re-ranks under MinTime; re-check there.
				if obj.Goal == MinCostWithin && dec.Chosen.Time > obj.TimeBound {
					continue
				}
				t.Logf("chosen objective value %g beaten by %v (%s) at %g", chosenP, c.Strategy, c.Config(), p)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(20211206))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyFallbackStillFastest: when the MinCostWithin bound is
// unmeetable the planner falls back to MinTime, so the chosen plan
// must then be time-minimal among feasible candidates.
func TestPropertyFallbackStillFastest(t *testing.T) {
	env := flipEnv()
	f := func(vol uint32, cap, part, merge uint8) bool {
		wl := randWorkload(vol, cap, part, merge)
		obj := Objective{Goal: MinCostWithin, TimeBound: time.Nanosecond}
		dec, err := Plan(wl, env, obj)
		if err != nil {
			return true
		}
		for _, c := range dec.Candidates {
			if c.Feasible && c.Time < dec.Chosen.Time {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyPlanningIsDeterministic: identical inputs must produce
// identical decisions — the concurrent candidate evaluation must not
// leak scheduling order into the result.
func TestPropertyPlanningIsDeterministic(t *testing.T) {
	env := flipEnv()
	f := func(vol uint32, cap, part, merge, sel uint8, bound uint16) bool {
		wl := randWorkload(vol, cap, part, merge)
		obj := randObjective(sel, bound)
		a, errA := Plan(wl, env, obj)
		b, errB := Plan(wl, env, obj)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return errA.Error() == errB.Error()
		}
		return reflect.DeepEqual(a, b)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
