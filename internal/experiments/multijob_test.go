package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/pipeline"
	"github.com/faaspipe/faaspipe/internal/session"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// TestMultiJobAmortization is the ROADMAP's multi-job acceptance: at
// least two submissions sharing one warm cluster must come in strictly
// below the same jobs in independent sessions, on cost and on total
// latency (no per-job spin-up).
func TestMultiJobAmortization(t *testing.T) {
	res, err := MultiJob(calib.Paper(), 0, 2)
	if err != nil {
		t.Fatalf("MultiJob: %v", err)
	}
	if res.Jobs != 2 || len(res.Rows) != 2 {
		t.Fatalf("rows = %d, jobs = %d", len(res.Rows), res.Jobs)
	}
	if res.SharedTotalUSD >= res.IndependentTotalUSD {
		t.Errorf("shared $%.4f not strictly below independent $%.4f",
			res.SharedTotalUSD, res.IndependentTotalUSD)
	}
	if res.SharedTotalTime >= res.IndependentTotal {
		t.Errorf("shared latency %v not below independent %v",
			res.SharedTotalTime, res.IndependentTotal)
	}
	for _, row := range res.Rows {
		// Every shared job dodges the cluster spin-up the independent
		// one pays inside its sort stage.
		if row.SharedLatency >= row.IndependentLatency {
			t.Errorf("job %d: shared %v not faster than independent %v",
				row.Job, row.SharedLatency, row.IndependentLatency)
		}
	}
	out := res.String()
	for _, want := range []string{"Multi-job amortization", "TOTAL", "saves"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// runMeters is a core.Listener that prices a rig's global meters over
// each run, from the mark its driver sets when staging is done to the
// run's end, and every instance and cluster for its billed lifetime as of
// the last run's end.
type runMeters struct {
	rig              *calib.Rig
	from, runs, held float64
}

// requests prices every invocation and request so far.
func (m *runMeters) requests() float64 {
	pb := m.rig.Profile.Prices
	return pb.FunctionsCost(m.rig.Platform.Meter()) + pb.StorageCost(m.rig.Store.Metrics())
}

func (m *runMeters) mark()                                      { m.from = m.requests() }
func (m *runMeters) StageStarted(string, string, time.Duration) {}
func (m *runMeters) StageFinished(string, core.StageReport)     {}
func (m *runMeters) RunFinished(*core.RunReport) {
	pb := m.rig.Profile.Prices
	m.runs += m.requests() - m.from
	m.held = pb.VMCost(m.rig.Prov.Instances()) + pb.CacheCost(m.rig.CacheProv.Clusters())
}

// TestMultiJobSessionBillIsTheMeters: the experiment's shared session,
// jobs one after another on one standing cluster, bills what the global
// meters priced while its jobs ran, less the driver's staging, plus the
// standing cluster up to the last job's end.
func TestMultiJobSessionBillIsTheMeters(t *testing.T) {
	profile := calib.Paper()
	doc, err := pipeline.Load([]byte(multiJobDoc))
	if err != nil {
		t.Fatal(err)
	}
	nodes := memcache.NodesForCapacity(profile.Cache, PaperDataBytes, shuffle.CacheOversize)
	meters := &runMeters{}
	sess, err := session.Open(profile, session.Options{WarmCacheNodes: nodes, Listeners: []core.Listener{meters}})
	if err != nil {
		t.Fatal(err)
	}
	meters.rig = sess.Rig()
	var ledgers float64
	for i := 0; i < 3; i++ {
		job := doc.Job(pipeline.JobConfig{DataBytes: PaperDataBytes})
		stage := job.Prepare
		job.Prepare = func(p *des.Proc, rig *calib.Rig) error {
			err := stage(p, rig)
			meters.mark()
			return err
		}
		rep, err := sess.Submit(job)
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
		ledgers += rep.TotalUSD()
	}
	bill, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ledgers-bill.TotalUSD) > 1e-12 {
		t.Errorf("runs sum to $%.12f, session bill $%.12f", ledgers, bill.TotalUSD)
	}
	if want := meters.runs + meters.held; math.Abs(bill.TotalUSD-want) > 1e-9*want {
		t.Errorf("session bill $%.12f, global meters x price book $%.12f", bill.TotalUSD, want)
	}
}
