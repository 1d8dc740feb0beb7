package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

func TestTable1ReproducesPaperShape(t *testing.T) {
	res, err := Table1(calib.Paper(), 0, 0)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	sl, vm := res.Rows[0], res.Rows[1]
	if sl.Kind != PurelyServerless || vm.Kind != VMSupported {
		t.Fatalf("row order: %v, %v", sl.Kind, vm.Kind)
	}
	// Headline: serverless wins on latency.
	if sl.Latency >= vm.Latency {
		t.Fatalf("serverless %v not faster than VM %v", sl.Latency, vm.Latency)
	}
	// Factor near the paper's 1.71x.
	speedup := vm.Latency.Seconds() / sl.Latency.Seconds()
	if speedup < 1.4 || speedup > 2.1 {
		t.Fatalf("speedup = %.2fx, want ~1.7x", speedup)
	}
	// Calibration: latencies within 15%% of the published numbers.
	if d := math.Abs(sl.Latency.Seconds()-PaperServerlessLatency) / PaperServerlessLatency; d > 0.15 {
		t.Fatalf("serverless latency %.2fs deviates %.0f%% from paper %.2fs",
			sl.Latency.Seconds(), d*100, PaperServerlessLatency)
	}
	if d := math.Abs(vm.Latency.Seconds()-PaperVMLatency) / PaperVMLatency; d > 0.15 {
		t.Fatalf("VM latency %.2fs deviates %.0f%% from paper %.2fs",
			vm.Latency.Seconds(), d*100, PaperVMLatency)
	}
	// Costs are similar, with the VM configuration slightly higher —
	// the paper's second-order observation.
	if sl.CostUSD >= vm.CostUSD {
		t.Fatalf("serverless cost %.4f >= VM cost %.4f", sl.CostUSD, vm.CostUSD)
	}
	if vm.CostUSD > 2*sl.CostUSD {
		t.Fatalf("costs not similar: %.4f vs %.4f", sl.CostUSD, vm.CostUSD)
	}

	// The bands do not hang on the profile's seed. A bill is billed time
	// at list prices, and what the draws move (the store's request
	// latencies, the functions' starts) moves the billed time by under a
	// millionth (the VM row's through its lease, stopped when the sort
	// is done; 4.5e-7 at seed 20), and each latency error by a fraction
	// of a point.
	paper := []float64{PaperServerlessLatency, PaperVMLatency}
	latencyErr := func(rows []PipelineRun, i int) float64 {
		return 100 * (rows[i].Latency.Seconds() - paper[i]) / paper[i]
	}
	for _, seed := range []int64{1, 7, 20} {
		p := calib.Paper()
		p.Seed = seed
		other, err := Table1(p, 0, 0)
		if err != nil {
			t.Fatalf("seed %d: Table1: %v", seed, err)
		}
		for i, row := range other.Rows {
			if want := res.Rows[i].CostUSD; math.Abs(row.CostUSD-want) > 1e-6*want {
				t.Errorf("seed %d: %v costs $%.9f, $%.9f at the profile's seed", seed, row.Kind, row.CostUSD, want)
			}
			if got, want := latencyErr(other.Rows, i), latencyErr(res.Rows, i); math.Abs(got-want) > 0.5 {
				t.Errorf("seed %d: %v latency error %+.2f%%, %+.2f%% at the profile's seed", seed, row.Kind, got, want)
			}
		}
		if speedup := other.Rows[1].Latency.Seconds() / other.Rows[0].Latency.Seconds(); speedup < 1.4 || speedup > 2.1 {
			t.Errorf("seed %d: speedup = %.2fx, want ~1.7x", seed, speedup)
		}
	}
}

func TestTable1Deterministic(t *testing.T) {
	a, err := Table1(calib.Paper(), 0, 0)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	b, err := Table1(calib.Paper(), 0, 0)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	for i := range a.Rows {
		if a.Rows[i].Latency != b.Rows[i].Latency {
			t.Fatalf("row %d latency differs across runs", i)
		}
		if a.Rows[i].CostUSD != b.Rows[i].CostUSD {
			t.Fatalf("row %d cost differs across runs", i)
		}
	}
}

func TestTable1Render(t *testing.T) {
	res, err := Table1(calib.Paper(), 0, 0)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	s := res.String()
	for _, want := range []string{"Purely", "VM-supported", "speedup", "83.32"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
	trace := res.StageTrace()
	for _, want := range []string{"sort", "encode", "TOTAL"} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace missing %q:\n%s", want, trace)
		}
	}
}

func TestWorkerSweepUShape(t *testing.T) {
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	res, err := WorkerSweep(calib.Paper(), 0, counts)
	if err != nil {
		t.Fatalf("WorkerSweep: %v", err)
	}
	if len(res.Rows) != len(counts) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Find the measured minimum; it must not sit at either extreme —
	// too few functions starve bandwidth, too many drown in requests.
	minIdx := 0
	for i, row := range res.Rows {
		if row.Measured < res.Rows[minIdx].Measured {
			minIdx = i
		}
	}
	if minIdx == 0 {
		t.Fatalf("minimum at 1 worker; no bandwidth aggregation benefit:\n%s", res)
	}
	if minIdx == len(res.Rows)-1 {
		t.Fatalf("minimum at max workers; request overheads not modeled:\n%s", res)
	}
	if res.Planned <= 1 {
		t.Fatalf("planner picked %d workers", res.Planned)
	}
	// The planner's choice must be competitive: within 25% of the best
	// measured point.
	best := res.Rows[minIdx].Measured.Seconds()
	planned, err := measureShuffle(calib.Paper(), PaperDataBytes, res.Planned)
	if err != nil {
		t.Fatalf("measure planned: %v", err)
	}
	if planned.Seconds() > best*1.25 {
		t.Fatalf("planner choice %d measured %.2fs vs best %.2fs",
			res.Planned, planned.Seconds(), best)
	}
}

func TestSizeSweepBootAmortization(t *testing.T) {
	sizes := []int64{500e6, 3500e6, 16000e6}
	res, err := SizeSweep(calib.Paper(), sizes, 8)
	if err != nil {
		t.Fatalf("SizeSweep: %v", err)
	}
	if len(res.Rows) != 2*len(sizes) {
		t.Fatalf("rows = %d, want a (serverless, VM) pair per size", len(res.Rows))
	}
	// Rows come in (serverless, VM) pairs, one pair per size.
	var serverless, vm []PipelineRun
	for i, row := range res.Rows {
		if want := sizes[i/2]; row.DataBytes != want {
			t.Fatalf("row %d ran %d bytes, want %d", i, row.DataBytes, want)
		}
		if i%2 == 0 {
			serverless = append(serverless, row)
		} else {
			vm = append(vm, row)
		}
	}
	if serverless[0].Kind != PurelyServerless || vm[0].Kind != VMSupported {
		t.Fatalf("pair order: %v, %v", serverless[0].Kind, vm[0].Kind)
	}
	// Latency grows with size for both strategies.
	for i := 1; i < len(sizes); i++ {
		if serverless[i].Latency <= serverless[i-1].Latency {
			t.Fatalf("serverless latency not increasing with size:\n%s", res)
		}
		if vm[i].Latency <= vm[i-1].Latency {
			t.Fatalf("VM latency not increasing with size:\n%s", res)
		}
	}
	// The serverless advantage shrinks as the VM boot amortizes.
	last := len(sizes) - 1
	first := vm[0].Latency.Seconds() / serverless[0].Latency.Seconds()
	final := vm[last].Latency.Seconds() / serverless[last].Latency.Seconds()
	if final >= first {
		t.Fatalf("speedup grew with size (%.2fx -> %.2fx); boot not amortizing:\n%s",
			first, final, res)
	}
	// Serverless stays ahead across the sweep in this regime.
	for i := range sizes {
		if serverless[i].Latency >= vm[i].Latency {
			t.Fatalf("serverless lost at %.1f GB:\n%s", float64(sizes[i])/1e9, res)
		}
	}
}

func TestCompressionOrderOfMagnitude(t *testing.T) {
	res, err := Compression([]int{50000, 200000}, 42)
	if err != nil {
		t.Fatalf("Compression: %v", err)
	}
	for _, row := range res.Rows {
		if row.Ratio < 10 {
			t.Fatalf("methcomp ratio %.1fx < 10x at %d records", row.Ratio, row.Records)
		}
		if row.Advantage < 2.5 {
			t.Fatalf("advantage %.1fx < 2.5x at %d records", row.Advantage, row.Records)
		}
	}
	if !strings.Contains(res.String(), "advantage") {
		t.Fatal("render missing advantage column")
	}
}

func TestStoreThrottlePlateau(t *testing.T) {
	res, err := StoreThrottle(calib.Paper(), []int{1, 8, 64}, 300)
	if err != nil {
		t.Fatalf("StoreThrottle: %v", err)
	}
	limit := res.ConfiguredWriteOps
	// One client is bounded by request latency, far below the limit.
	if res.Rows[0].AchievedOps > limit {
		t.Fatalf("1 client exceeded the service limit:\n%s", res)
	}
	// Many clients plateau at the configured limit, not above.
	many := res.Rows[len(res.Rows)-1].AchievedOps
	if many > limit*1.1 {
		t.Fatalf("aggregate %.0f ops/s exceeds limit %.0f:\n%s", many, limit, res)
	}
	if many < limit*0.7 {
		t.Fatalf("aggregate %.0f ops/s far below limit %.0f; throttle too strict:\n%s",
			many, limit, res)
	}
}

func TestRunPipelineUnknownStrategy(t *testing.T) {
	if _, err := RunPipeline(calib.Paper(), StrategyKind(99), 1e6, 2); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestMeasureSort drives the one sort-only runner through its three
// modes and a failing set-up: a store that refuses (almost) every request must
// surface as an error from bucket creation, not as a measurement.
func TestMeasureSort(t *testing.T) {
	faulty := calib.Local()
	faulty.Faas.FailureRate = 0.3
	refusing := calib.Local()
	refusing.Store.FailureRate = 0.9999
	for _, tc := range []struct {
		name     string
		profile  calib.Profile
		so       sortOnly
		setupErr error
		check    func(t *testing.T, m sortMeasurement)
	}{
		{name: "plain", profile: calib.Local(), so: sortOnly{workers: 4},
			check: func(t *testing.T, m sortMeasurement) {
				if m.sortErr != nil || m.latency <= 0 || m.groups != 0 {
					t.Errorf("plain sort: %+v", m)
				}
			}},
		{name: "hierarchical", profile: calib.Local(), so: sortOnly{workers: 16, exchange: shuffle.ViaStoreTwoLevel},
			check: func(t *testing.T, m sortMeasurement) {
				if m.sortErr != nil || m.latency <= 0 || m.groups < 2 {
					t.Errorf("hierarchical sort: %+v", m)
				}
			}},
		{name: "faulty, unmitigated", profile: faulty, so: sortOnly{workers: 8},
			check: func(t *testing.T, m sortMeasurement) {
				if m.sortErr == nil || m.meter.FailedAttempts == 0 {
					t.Errorf("30%% failures without retries: sortErr %v, meter %+v", m.sortErr, m.meter)
				}
			}},
		{name: "faulty, retried", profile: faulty, so: sortOnly{workers: 8, maxRetries: 6, speculate: true},
			check: func(t *testing.T, m sortMeasurement) {
				if m.sortErr != nil || m.meter.Retries == 0 {
					t.Errorf("30%% failures with retries: sortErr %v, meter %+v", m.sortErr, m.meter)
				}
			}},
		{name: "failing set-up", profile: refusing, so: sortOnly{workers: 4}, setupErr: objectstore.ErrSlowDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := measureSort(tc.profile, 20e6, tc.so)
			if !errors.Is(err, tc.setupErr) {
				t.Fatalf("err = %v, want %v", err, tc.setupErr)
			}
			if tc.setupErr != nil {
				if m.latency != 0 || m.sortErr != nil {
					t.Errorf("sort ran after a failed set-up: %+v", m)
				}
				return
			}
			tc.check(t, m)
		})
	}
}
