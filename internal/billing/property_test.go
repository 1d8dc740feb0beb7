package billing

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// TestPropertyReportTotalIsSumOfLines: Total must equal the sum of
// every added line for any sequence of Add calls.
func TestPropertyReportTotalIsSumOfLines(t *testing.T) {
	f := func(cents []uint16) bool {
		var r Report
		var want float64
		for i, c := range cents {
			usd := float64(c) / 100
			r.Add("line", usd)
			want += usd
			if i > 100 {
				break
			}
		}
		return math.Abs(r.Total()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyStageCostTotals: a stage cost's Total is bit for bit the
// Total of the four lines it renders, under any prefix; appending it to
// a report adds its total; and Add accumulates component by component.
func TestPropertyStageCostTotals(t *testing.T) {
	f := func(a []uint16, fn, st, vm, ca float64, prefix string) bool {
		cost := StageCost{Functions: fn, Storage: st, VM: vm, Cache: ca}
		var alone Report
		cost.AppendTo(&alone, prefix)
		// Bits, not ==: quick's floats reach the overflow range, and an
		// Inf - Inf total must be the same NaN on both sides.
		if len(alone.Lines) != 4 || math.Float64bits(alone.Total()) != math.Float64bits(cost.Total()) {
			return false
		}
		var r Report
		for _, cents := range a {
			r.Add("x", float64(cents)/100)
		}
		before := r.Total()
		small := StageCost{Functions: float64(len(a)) / 100, Storage: 0.25, VM: 1, Cache: 0.5}
		small.AppendTo(&r, prefix)
		if math.Abs(r.Total()-(before+small.Total())) > 1e-9 {
			return false
		}
		sum := cost
		sum.Add(small)
		return sum == StageCost{fn + small.Functions, st + small.Storage, vm + small.VM, ca + small.Cache}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyCostsNonNegativeAndMonotone: prices over non-negative
// meters are non-negative, and more activity never costs less.
func TestPropertyCostsNonNegativeAndMonotone(t *testing.T) {
	pb := Default()
	f := func(gbs uint32, inv uint16, a, b, extraA uint16) bool {
		m := faas.Meter{GBSeconds: float64(gbs) / 100, Invocations: int64(inv)}
		if pb.FunctionsCost(m) < 0 {
			return false
		}
		sm := objectstore.Metrics{ClassAOps: int64(a), ClassBOps: int64(b)}
		base := pb.StorageCost(sm)
		if base < 0 {
			return false
		}
		sm.ClassAOps += int64(extraA)
		return pb.StorageCost(sm) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStorageCostIncludesVolume(t *testing.T) {
	pb := Default()
	// 1 GiB held for one 30-day month costs exactly the GB-month rate.
	m := objectstore.Metrics{ByteSeconds: float64(int64(1)<<30) * 30 * 24 * 3600}
	if got := pb.StorageCost(m); math.Abs(got-pb.StorageGBMonth) > 1e-9 {
		t.Fatalf("volume-only cost = %g, want %g", got, pb.StorageGBMonth)
	}
}
