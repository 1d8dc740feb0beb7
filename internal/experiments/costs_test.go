package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/calib"
)

func TestCostBreakdownComponentsSumToTotal(t *testing.T) {
	res, err := CostBreakdown(calib.Paper(), 0, 0, []StrategyKind{
		PurelyServerless, VMSupported, CacheSupported,
	})
	if err != nil {
		t.Fatalf("CostBreakdown: %v", err)
	}
	for _, row := range res.Rows {
		c := row.Components()
		sum := c.Functions + c.Storage + c.VM + c.Cache
		if math.Abs(sum-row.CostUSD) > 1e-9 {
			t.Errorf("%v: components sum %.6f != total %.6f", row.Kind, sum, row.CostUSD)
		}
	}
}

func TestCostBreakdownAttribution(t *testing.T) {
	res, err := CostBreakdown(calib.Paper(), 0, 0, []StrategyKind{
		PurelyServerless, VMSupported, CacheSupported,
	})
	if err != nil {
		t.Fatalf("CostBreakdown: %v", err)
	}
	byKind := make(map[StrategyKind]billing.StageCost)
	for _, row := range res.Rows {
		byKind[row.Kind] = row.Components()
	}
	sl := byKind[PurelyServerless]
	vm := byKind[VMSupported]
	cache := byKind[CacheSupported]
	if sl.VM != 0 || sl.Cache != 0 {
		t.Errorf("serverless bill includes VM %.4f / cache %.4f", sl.VM, sl.Cache)
	}
	if vm.VM <= 0 {
		t.Error("VM configuration has no VM spend")
	}
	if vm.Cache != 0 {
		t.Errorf("VM configuration billed cache %.4f", vm.Cache)
	}
	if cache.Cache <= 0 {
		t.Error("cache configuration has no cache spend")
	}
	if cache.VM != 0 {
		t.Errorf("cache configuration billed VM %.4f", cache.VM)
	}
	// Every configuration pays functions and storage requests.
	for kind, row := range byKind {
		if row.Functions <= 0 || row.Storage <= 0 {
			t.Errorf("%v: functions %.4f / storage %.4f, want both > 0",
				kind, row.Functions, row.Storage)
		}
	}
}

func TestCostBreakdownDefaultsToTable1Configs(t *testing.T) {
	res, err := CostBreakdown(calib.Paper(), 0, 0, nil)
	if err != nil {
		t.Fatalf("CostBreakdown: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want Table 1's two configurations", len(res.Rows))
	}
}

func TestCostBreakdownString(t *testing.T) {
	res, err := CostBreakdown(calib.Paper(), 500e6, 4, nil)
	if err != nil {
		t.Fatalf("CostBreakdown: %v", err)
	}
	out := res.String()
	for _, want := range []string{"functions", "storage", "vm", "cache", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
