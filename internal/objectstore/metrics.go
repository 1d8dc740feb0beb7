package objectstore

// Metrics counts the billable activity of a Service. Requests are
// split into the two billing classes object storage providers use:
// class A (mutating / listing: PUT, COPY, LIST, bucket creation) and
// class B (retrieval: GET, HEAD). Deletes are free but still counted.
// ByteSeconds is the time integral of stored volume, the basis of the
// GB-month storage charge (epsilon for pipelines that hold data for
// seconds, but accounted like a real bill).
type Metrics struct {
	ClassAOps   int64
	ClassBOps   int64
	DeleteOps   int64
	BytesIn     int64
	BytesOut    int64
	Throttled   int64
	ByteSeconds float64
}

// Sub returns m minus o, the activity between two snapshots.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		ClassAOps:   m.ClassAOps - o.ClassAOps,
		ClassBOps:   m.ClassBOps - o.ClassBOps,
		DeleteOps:   m.DeleteOps - o.DeleteOps,
		BytesIn:     m.BytesIn - o.BytesIn,
		BytesOut:    m.BytesOut - o.BytesOut,
		Throttled:   m.Throttled - o.Throttled,
		ByteSeconds: m.ByteSeconds - o.ByteSeconds,
	}
}

// The charges of one request.
func countClassA(m *Metrics)    { m.ClassAOps++ }
func countClassB(m *Metrics)    { m.ClassBOps++ }
func countThrottled(m *Metrics) { m.Throttled++ }

// TotalOps reports all billable requests (class A + class B).
func (m Metrics) TotalOps() int64 { return m.ClassAOps + m.ClassBOps }
