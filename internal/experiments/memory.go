package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
)

// MemoryRow is one point of the function-memory ablation.
type MemoryRow struct {
	MemoryMB int
	Latency  time.Duration
	CostUSD  float64
}

// MemoryResult is the function-memory ablation: the paper allocates
// 2 GB per function without justification; this sweep shows the
// latency/cost trade behind that choice (CPU scales with the grant,
// like Lambda, and so does the GB-second bill).
type MemoryResult struct {
	DataBytes int64
	Workers   int
	Rows      []MemoryRow
}

// MemorySweep runs the purely serverless pipeline at each function
// memory grant.
func MemorySweep(profile calib.Profile, dataBytes int64, workers int, memsMB []int) (MemoryResult, error) {
	dataBytes, workers = paperScale(dataBytes, workers)
	res := MemoryResult{DataBytes: dataBytes, Workers: workers}
	for _, mem := range memsMB {
		profile.Faas.MemoryMB = mem // CPU share and billing follow the grant
		runs, err := runKinds(profile, dataBytes, workers, PurelyServerless)
		if err != nil {
			return res, fmt.Errorf("experiments: memory sweep %dMB: %w", mem, err)
		}
		res.Rows = append(res.Rows, MemoryRow{
			MemoryMB: mem,
			Latency:  runs.Rows[0].Latency,
			CostUSD:  runs.Rows[0].CostUSD,
		})
	}
	return res, nil
}

// String renders the ablation.
func (r MemoryResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipeline latency & cost vs function memory (%.1f GB, parallelism %d)\n",
		float64(r.DataBytes)/1e9, r.Workers)
	fmt.Fprintf(&b, "%12s %14s %10s\n", "memory (MB)", "latency (s)", "cost ($)")
	for _, row := range r.Rows {
		marker := ""
		if row.MemoryMB == 2048 {
			marker = "  <- paper's grant"
		}
		fmt.Fprintf(&b, "%12d %14.2f %10.4f%s\n",
			row.MemoryMB, row.Latency.Seconds(), row.CostUSD, marker)
	}
	return b.String()
}
