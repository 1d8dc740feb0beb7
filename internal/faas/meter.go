package faas

import "time"

// Meter accumulates the platform's billable activity.
type Meter struct {
	// Invocations counts completed activation attempts (including
	// failed ones — the platform billed them).
	Invocations int64
	// GBSeconds is the billed compute volume (memory GB x billed
	// seconds, rounded up to the billing granularity per activation).
	GBSeconds float64
	// ColdStarts and WarmStarts classify container acquisitions.
	ColdStarts int64
	WarmStarts int64
	// FailedAttempts counts injected transient failures.
	FailedAttempts int64
	// Retries counts re-attempts issued under InvokeOptions.MaxRetries.
	Retries int64
	// Stragglers counts attempts that drew the straggler slowdown.
	Stragglers int64
	// ExecTime is the unrounded total handler execution time.
	ExecTime time.Duration
}

// Sub returns m minus o, the activity between two snapshots.
func (m Meter) Sub(o Meter) Meter {
	return Meter{
		Invocations:    m.Invocations - o.Invocations,
		GBSeconds:      m.GBSeconds - o.GBSeconds,
		ColdStarts:     m.ColdStarts - o.ColdStarts,
		WarmStarts:     m.WarmStarts - o.WarmStarts,
		FailedAttempts: m.FailedAttempts - o.FailedAttempts,
		Retries:        m.Retries - o.Retries,
		Stragglers:     m.Stragglers - o.Stragglers,
		ExecTime:       m.ExecTime - o.ExecTime,
	}
}
