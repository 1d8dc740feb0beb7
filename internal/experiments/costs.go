package experiments

import (
	"fmt"
	"strings"

	"github.com/faaspipe/faaspipe/internal/calib"
)

// CostRow itemizes one configuration's spend by component, matching
// the paper's accounting: "the cost of cloud functions, storage
// requests, and the VM expenses".
type CostRow struct {
	Kind      StrategyKind
	Functions float64
	Storage   float64
	VM        float64
	Cache     float64
	Total     float64
}

// CostResult is the itemized counterpart of Table 1's cost column.
type CostResult struct {
	DataBytes int64
	Workers   int
	Rows      []CostRow
}

// CostBreakdown runs each configuration and splits its bill by
// component.
func CostBreakdown(profile calib.Profile, dataBytes int64, workers int, kinds []StrategyKind) (CostResult, error) {
	if len(kinds) == 0 {
		kinds = []StrategyKind{PurelyServerless, VMSupported}
	}
	runs, err := runKinds(profile, dataBytes, workers, kinds...)
	res := CostResult{DataBytes: runs.DataBytes, Workers: runs.Workers}
	for _, run := range runs.Rows {
		row := CostRow{Kind: run.Kind, Total: run.CostUSD}
		for _, sr := range run.Report.Stages {
			row.Functions += profile.Prices.FunctionsCost(sr.Faas)
			row.Storage += profile.Prices.StorageCost(sr.Store)
			row.VM += sr.VMUSD
			row.Cache += sr.CacheUSD
		}
		res.Rows = append(res.Rows, row)
	}
	return res, err
}

// String renders the itemized costs.
func (r CostResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cost breakdown per configuration (%.1f GB, parallelism %d)\n",
		float64(r.DataBytes)/1e9, r.Workers)
	fmt.Fprintf(&b, "%-24s %11s %10s %10s %10s %10s\n",
		"Configuration", "functions", "storage", "vm", "cache", "total")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %11.4f %10.4f %10.4f %10.4f %10.4f\n",
			row.Kind, row.Functions, row.Storage, row.VM, row.Cache, row.Total)
	}
	return b.String()
}
