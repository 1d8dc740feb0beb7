package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
)

// FaultPolicy names a mitigation configuration for the fault
// experiment.
type FaultPolicy int

// The mitigation ladders of the fault experiment.
const (
	NoMitigation FaultPolicy = iota + 1
	WithRetries
	WithRetriesAndSpeculation
)

func (p FaultPolicy) String() string {
	switch p {
	case NoMitigation:
		return "none"
	case WithRetries:
		return "retries"
	case WithRetriesAndSpeculation:
		return "retries+speculation"
	default:
		return fmt.Sprintf("FaultPolicy(%d)", int(p))
	}
}

// FaultRow is one cell of the fault-sensitivity matrix.
type FaultRow struct {
	FailureRate float64
	Policy      FaultPolicy
	// Succeeded reports whether the shuffle completed.
	Succeeded bool
	// Latency is the shuffle makespan when it succeeded.
	Latency time.Duration
	// Retries and FailedAttempts are the platform's counters.
	Retries        int64
	FailedAttempts int64
	Stragglers     int64
}

// FaultResult is the fault-injection extension experiment: how the
// purely serverless shuffle behaves when the platform loses containers
// and hosts degrade — the operational risk a VM-based sort does not
// share, and the mitigation it needs.
type FaultResult struct {
	DataBytes     int64
	Workers       int
	StragglerRate float64
	Rows          []FaultRow
}

// FaultTolerance measures the shuffle under each failure rate and
// mitigation policy. Straggler injection (rate 0.15, slowdown 4) is
// constant across the matrix so the speculation column is meaningful.
func FaultTolerance(profile calib.Profile, dataBytes int64, workers int, failureRates []float64) (FaultResult, error) {
	dataBytes, workers = paperScale(dataBytes, workers)
	res := FaultResult{DataBytes: dataBytes, Workers: workers, StragglerRate: 0.15}
	for _, rate := range failureRates {
		for _, policy := range []FaultPolicy{NoMitigation, WithRetries, WithRetriesAndSpeculation} {
			row, err := measureFaultyShuffle(profile, dataBytes, workers, rate, res.StragglerRate, policy)
			if err != nil {
				return res, fmt.Errorf("experiments: fault rate=%g policy=%v: %w", rate, policy, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// measureFaultyShuffle runs one shuffle under injected faults. A
// shuffle abort (retries exhausted or no mitigation) is a measurement,
// not an error: the row reports Succeeded=false.
func measureFaultyShuffle(profile calib.Profile, dataBytes int64, workers int, failureRate, stragglerRate float64, policy FaultPolicy) (FaultRow, error) {
	profile.Faas.FailureRate = failureRate
	profile.Faas.StragglerRate = stragglerRate
	profile.Faas.StragglerSlowdown = 4
	so := sortOnly{workers: workers}
	if policy != NoMitigation {
		so.maxRetries = 6
		so.speculate = policy == WithRetriesAndSpeculation
	}
	m, err := measureSort(profile, dataBytes, so)
	return FaultRow{
		FailureRate:    failureRate,
		Policy:         policy,
		Succeeded:      m.sortErr == nil,
		Latency:        m.latency,
		Retries:        m.meter.Retries,
		FailedAttempts: m.meter.FailedAttempts,
		Stragglers:     m.meter.Stragglers,
	}, err
}

// String renders the fault matrix.
func (r FaultResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shuffle under injected faults (%.1f GB, %d workers, stragglers %.0f%% at 4x)\n",
		float64(r.DataBytes)/1e9, r.Workers, r.StragglerRate*100)
	fmt.Fprintf(&b, "%10s %-22s %10s %12s %8s %8s %11s\n",
		"fail rate", "policy", "ok", "latency (s)", "retries", "failed", "stragglers")
	for _, row := range r.Rows {
		lat := "-"
		if row.Succeeded {
			lat = fmt.Sprintf("%.2f", row.Latency.Seconds())
		}
		fmt.Fprintf(&b, "%9.0f%% %-22s %10v %12s %8d %8d %11d\n",
			row.FailureRate*100, row.Policy, row.Succeeded, lat,
			row.Retries, row.FailedAttempts, row.Stragglers)
	}
	return b.String()
}
