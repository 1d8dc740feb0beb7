package memcache

// Metrics accumulates a cluster's activity counters, for billing
// attribution and tests.
type Metrics struct {
	// SetOps, GetOps, DeleteOps count completed requests by kind.
	SetOps    int64
	GetOps    int64
	DeleteOps int64
	// Hits and Misses classify Get outcomes.
	Hits   int64
	Misses int64
	// BytesIn and BytesOut are the transferred volumes.
	BytesIn  int64
	BytesOut int64
}

// Sub returns m minus o, for windowed attribution between snapshots.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		SetOps:    m.SetOps - o.SetOps,
		GetOps:    m.GetOps - o.GetOps,
		DeleteOps: m.DeleteOps - o.DeleteOps,
		Hits:      m.Hits - o.Hits,
		Misses:    m.Misses - o.Misses,
		BytesIn:   m.BytesIn - o.BytesIn,
		BytesOut:  m.BytesOut - o.BytesOut,
	}
}
