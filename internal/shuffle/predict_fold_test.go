package shuffle

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// randomModelCase draws a store profile, a plan input and a worker /
// group pair (g | w) well outside the calibrated profiles: the fold has
// to agree with the retired bodies for any numbers, not only the
// paper's.
func randomModelCase(rng *rand.Rand) (w, g int, in PlanInput, sp StoreProfile) {
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Pow(hi/lo, rng.Float64())
	}
	w = 1 + rng.Intn(256)
	var divisors []int
	for d := 1; d <= w; d++ {
		if w%d == 0 {
			divisors = append(divisors, d)
		}
	}
	g = divisors[rng.Intn(len(divisors))]
	sp = StoreProfile{
		RequestLatency:   time.Duration(logUniform(1e4, 1e9)),
		PerConnBandwidth: logUniform(1e6, 1e10),
		ReadOpsPerSec:    logUniform(10, 1e7),
		WriteOpsPerSec:   logUniform(10, 1e7),
	}
	if rng.Intn(4) > 0 { // zero: no aggregate ceiling
		sp.AggregateBandwidth = logUniform(1e7, 1e12)
	}
	in = PlanInput{
		DataBytes: int64(logUniform(1e3, 1e12)),
		Startup:   time.Duration(rng.Int63n(int64(5 * time.Second))),
	}
	if rng.Intn(4) > 0 { // zero: the defaults
		in.PartitionBps, in.MergeBps = logUniform(1e6, 1e9), logUniform(1e6, 1e9)
	}
	return w, g, in, sp
}

// breakdown is the part of a Plan the retired bodies produced.
func breakdown(p Plan) [7]time.Duration {
	return [7]time.Duration{time.Duration(p.Workers), p.Predicted, p.Startup,
		p.Phase1IO, p.Phase1CPU, p.Phase2IO, p.Phase2CPU}
}

// TestFoldMatchesRetiredPredictors: Predict and PredictHierarchical as
// wave lists equal the retired closed forms (predict_oracle_test.go) in
// every component, to the nanosecond. No allowance is needed: the fold
// performs the same float operations in the same order and truncates
// the same five components.
func TestFoldMatchesRetiredPredictors(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20000; i++ {
		w, g, in, sp := randomModelCase(rng)
		if got, want := breakdown(Predict(w, in, sp)), breakdown(oraclePredict(w, in, sp)); got != want {
			t.Fatalf("Predict(w=%d, %+v, %+v)\n got  %v\n want %v", w, in, sp, got, want)
		}
		got, want := breakdown(PredictHierarchical(w, g, in, sp)), breakdown(oraclePredictHierarchical(w, g, in, sp))
		if got != want {
			t.Fatalf("PredictHierarchical(w=%d, g=%d, %+v, %+v)\n got  %v\n want %v", w, g, in, sp, got, want)
		}
	}
}

// TestFoldCountsRequests: the counts the fold reports are the closed
// forms autoplan/cost.go used to write out by hand per family.
func TestFoldCountsRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		w, g, in, sp := randomModelCase(rng)
		fw, fg := int64(w), int64(g)
		k := fw / fg
		parts := outputParts(in.DataBytes / fw)

		one := Predict(w, in, sp)
		if one.ClassA != fw*fw+fw*parts || one.ClassB != fw+fw*fw || one.Invocations != 2*w {
			t.Fatalf("one-level w=%d: A=%d B=%d inv=%d", w, one.ClassA, one.ClassB, one.Invocations)
		}
		two := PredictHierarchical(w, g, in, sp)
		if two.ClassA != fw*fg+fw*k+fw*parts || two.ClassB != fw+fw*fg+fw*k || two.Invocations != 3*w {
			t.Fatalf("two-level w=%d g=%d: A=%d B=%d inv=%d", w, g, two.ClassA, two.ClassB, two.Invocations)
		}
		cached := PredictCache(w, in, sp, sp, 0)
		if cached.ClassA != fw*parts || cached.ClassB != fw || cached.Invocations != 2*w {
			t.Fatalf("cache w=%d: A=%d B=%d inv=%d", w, cached.ClassA, cached.ClassB, cached.Invocations)
		}
	}
}

// outputParts is the class A count of one reducer's streamed output.
func outputParts(n int64) int64 {
	return objectstore.PutStreamRequests(n, AdaptiveChunkBytes(0, n))
}
