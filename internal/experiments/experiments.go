// Package experiments is the reproduction harness: each function
// regenerates one table, figure, or in-text claim of the paper on the
// simulated cloud, returning typed rows the CLI and the examples both
// render. pipeline.go holds the one METHCOMP pipeline runner and the
// tables built on it, sortonly.go the one shuffle-only runner and its
// sweeps, chaos.go the failure-domain matrices, gateway.go the
// open-loop gateway driver.
package experiments

import (
	"fmt"
	"strings"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/methcomp"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// CompressionRow is one point of the codec comparison.
type CompressionRow struct {
	Records int
	methcomp.Comparison
}

// CompressionResult reproduces the §2.1 claim that METHCOMP
// compresses methylation data about an order of magnitude better than
// gzip.
type CompressionResult struct {
	Rows []CompressionRow
}

// Compression compares the codec against gzip on synthetic WGBS data.
func Compression(recordCounts []int, seed int64) (CompressionResult, error) {
	var res CompressionResult
	for _, n := range recordCounts {
		recs := bed.Generate(bed.GenConfig{Records: n, Seed: seed, Sorted: true})
		cmp, err := methcomp.Compare(recs)
		if err != nil {
			return res, fmt.Errorf("experiments: compression n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, CompressionRow{Records: n, Comparison: cmp})
	}
	return res, nil
}

// String renders the comparison.
func (r CompressionResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "METHCOMP vs gzip on synthetic WGBS bedMethyl (sorted)")
	fmt.Fprintf(&b, "%10s %12s %12s %12s %10s %10s %11s\n",
		"records", "raw (B)", "methcomp", "gzip", "mc ratio", "gz ratio", "advantage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %12d %12d %12d %9.1fx %9.1fx %10.1fx\n",
			row.Records, row.RawBytes, row.CompressedBytes, row.GzipBytes,
			row.Ratio, row.GzipRatio, row.Advantage)
	}
	return b.String()
}

// ThrottleRow is one point of the ops-throttle demonstration.
type ThrottleRow struct {
	Clients     int
	AchievedOps float64
}

// ThrottleResult demonstrates the §1 claim that object storage
// sustains only a few thousand operations/s no matter how many
// clients hammer it.
type ThrottleResult struct {
	ConfiguredWriteOps float64
	Rows               []ThrottleRow
}

// StoreThrottle measures achieved aggregate write ops/s for growing
// client counts.
func StoreThrottle(profile calib.Profile, clients []int, opsPerClient int) (ThrottleResult, error) {
	res := ThrottleResult{ConfiguredWriteOps: profile.Store.WriteOpsPerSec}
	for _, n := range clients {
		rig, err := calib.NewRig(profile)
		if err != nil {
			return res, err
		}
		var runErr error
		rig.Sim.Spawn("throttle", func(p *des.Proc) {
			c := objectstore.NewClient(rig.Store)
			if err := c.CreateBucket(p, "b"); err != nil {
				runErr = err
				return
			}
			runErr = p.Fan(n, "client", func(i int, cp *des.Proc) error {
				for k := 0; k < opsPerClient; k++ {
					if err := c.Put(cp, "b",
						fmt.Sprintf("c%d/k%d", i, k), payload.Sized(0)); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err := rig.Run(); err != nil {
			return res, err
		}
		if runErr != nil {
			return res, runErr
		}
		elapsed := rig.Sim.Now().Seconds()
		total := float64(n * opsPerClient)
		res.Rows = append(res.Rows, ThrottleRow{Clients: n, AchievedOps: total / elapsed})
	}
	return res, nil
}

// String renders the throttle result.
func (r ThrottleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Aggregate write ops/s vs client count (service limit %.0f/s)\n",
		r.ConfiguredWriteOps)
	fmt.Fprintf(&b, "%10s %16s\n", "clients", "achieved ops/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %16.0f\n", row.Clients, row.AchievedOps)
	}
	return b.String()
}
