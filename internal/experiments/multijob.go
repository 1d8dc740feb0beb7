package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/pipeline"
	"github.com/faaspipe/faaspipe/internal/session"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// multiJobDoc is the submitted workload: the METHCOMP pipeline with a
// cache-backed exchange, declared in schema v2. The cache is the
// strategy with standing state worth amortizing — a per-job cluster
// pays minutes of spin-up and bills for it every time, a session's
// warm cluster pays once.
const multiJobDoc = `{
  "version": 2,
  "name": "multijob",
  "input": {"bucket": "data", "key": "sample.bed"},
  "workBucket": "work",
  "stages": [
    {"name": "sort", "type": "shuffle", "strategy": "cache", "workers": 8},
    {"name": "encode", "type": "map", "function": "methcomp/encode", "dependsOn": ["sort"]}
  ]
}`

// MultiJobRow compares one job position across the two deployments.
type MultiJobRow struct {
	Job int
	// Shared is the job submitted to the long-lived session (warm
	// standing cluster); latency has no spin-up and USD is the metered
	// cost plus the attributed standing share.
	SharedLatency time.Duration
	SharedUSD     float64
	// Independent is the same job in its own one-shot session: a cold
	// cluster provisioned and billed per job.
	IndependentLatency time.Duration
	IndependentUSD     float64
}

// MultiJobResult is the ROADMAP's multi-job planning experiment: the
// same N pipeline jobs run through one session sharing a warm cache
// cluster versus N independent sessions each provisioning their own.
// The session wins on cost because the cluster's spin-up window is
// paid once instead of N times, and on latency because no job waits on
// provisioning.
type MultiJobResult struct {
	DataBytes int64
	Jobs      int
	// Nodes is the shared cluster size.
	Nodes int
	Rows  []MultiJobRow
	// Totals include every cost the deployments incur: metered run
	// costs plus all standing accrual (idle tail included for the
	// session).
	SharedTotalUSD      float64
	IndependentTotalUSD float64
	SharedTotalTime     time.Duration
	IndependentTotal    time.Duration
}

// MultiJob runs the comparison at the given volume and job count
// (defaults: the paper's 3.5 GB, 3 jobs).
func MultiJob(profile calib.Profile, dataBytes int64, jobs int) (MultiJobResult, error) {
	dataBytes, _ = paperScale(dataBytes, 0)
	if jobs <= 0 {
		jobs = 3
	}
	doc, err := pipeline.Load([]byte(multiJobDoc))
	if err != nil {
		return MultiJobResult{}, err
	}
	nodes := memcache.NodesForCapacity(profile.Cache, dataBytes, shuffle.CacheOversize)
	res := MultiJobResult{DataBytes: dataBytes, Jobs: jobs, Nodes: nodes}

	// One session, one warm cluster, N submissions.
	sess, err := session.Open(profile, session.Options{WarmCacheNodes: nodes})
	if err != nil {
		return res, fmt.Errorf("experiments: multijob open: %w", err)
	}
	for i := 0; i < jobs; i++ {
		rep, err := sess.Submit(doc.Job(pipeline.JobConfig{DataBytes: dataBytes}))
		if err != nil {
			return res, fmt.Errorf("experiments: multijob shared run %d: %w", i+1, err)
		}
		res.Rows = append(res.Rows, MultiJobRow{
			Job:           i + 1,
			SharedLatency: rep.Latency(),
			SharedUSD:     rep.TotalUSD(),
		})
		res.SharedTotalTime += rep.Latency()
	}
	report, err := sess.Close()
	if err != nil {
		return res, err
	}
	res.SharedTotalUSD = report.TotalUSD

	// The same jobs, each in its own session with a cold per-job
	// cluster.
	for i := 0; i < jobs; i++ {
		rep, err := pipeline.Run(doc, profile, pipeline.JobConfig{DataBytes: dataBytes})
		if err != nil {
			return res, fmt.Errorf("experiments: multijob independent run %d: %w", i+1, err)
		}
		res.Rows[i].IndependentLatency = rep.Latency()
		res.Rows[i].IndependentUSD = rep.TotalUSD()
		res.IndependentTotalUSD += rep.TotalUSD()
		res.IndependentTotal += rep.Latency()
	}
	return res, nil
}

// String renders the comparison.
func (r MultiJobResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-job amortization: %d cache-exchanged jobs of %.1f GB (%d-node cluster)\n",
		r.Jobs, float64(r.DataBytes)/1e9, r.Nodes)
	fmt.Fprintf(&b, "%6s %18s %14s %18s %14s\n",
		"job", "session (s)", "session ($)", "independent (s)", "independent ($)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %18.2f %14.4f %18.2f %14.4f\n",
			row.Job, row.SharedLatency.Seconds(), row.SharedUSD,
			row.IndependentLatency.Seconds(), row.IndependentUSD)
	}
	fmt.Fprintf(&b, "%6s %18.2f %14.4f %18.2f %14.4f\n", "TOTAL",
		r.SharedTotalTime.Seconds(), r.SharedTotalUSD,
		r.IndependentTotal.Seconds(), r.IndependentTotalUSD)
	if r.IndependentTotalUSD > 0 {
		fmt.Fprintf(&b, "shared warm cluster saves %.1f%% of cost: one spin-up window billed instead of %d\n",
			(1-r.SharedTotalUSD/r.IndependentTotalUSD)*100, r.Jobs)
	}
	return b.String()
}
