package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/chaos"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/session"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// pinBytes keeps the pinned runs small; every scenario runs at it with
// eight workers.
const pinBytes = int64(1000e6)

// TestStageBillsPinned holds what a job that runs alone is billed, stage
// by stage: the Table 1 rows, a cold cache, a cache on a session's
// standing cluster, a spot VM that loses its instance once, a cache that
// loses a node, and an auto-planned run with the calibration it leaves
// in the planner's history. Integer meters are recorded exactly, float
// meters and the four cost components to ten significant digits. The
// golden is compared and never rewritten to match a change in how usage
// is attributed: a lone job's bill does not depend on it.
func TestStageBillsPinned(t *testing.T) {
	profile := calib.Paper()
	var b strings.Builder

	for _, kind := range []StrategyKind{PurelyServerless, VMSupported, CacheSupported} {
		run, err := runPipeline(profile, pipelineSpec{kind: kind, dataBytes: pinBytes, workers: 8})
		if err != nil || run.Err != nil {
			t.Fatalf("%v: %v / %v", kind, err, run.Err)
		}
		fmt.Fprintf(&b, "== %v\n", kind)
		writePinnedRun(&b, run.Report)
		fmt.Fprintf(&b, "session total %.10g\n", run.SessionUSD)
	}

	// A spot VM preempted during setup, and a cache that loses a node,
	// each aimed off its own fault-free sort window.
	for _, c := range []struct {
		kind  StrategyKind
		event func(StrategyKind, calib.Profile, sortWindow) chaos.Event
	}{
		{VMSupported, spotPreempt},
		{CacheSupported, cacheNodeLoss},
	} {
		base, err := runChaosCell(profile, c.kind, pinBytes, 8, nil)
		if err != nil || base.Err != nil {
			t.Fatalf("%v baseline: %v / %v", c.kind, err, base.Err)
		}
		sr, _ := base.Report.Stage("sort")
		plan := &chaos.Plan{Events: []chaos.Event{c.event(c.kind, profile, sortWindow{start: sr.Start, end: sr.End})}}
		run, err := runChaosCell(profile, c.kind, pinBytes, 8, plan)
		if err != nil || run.Err != nil {
			t.Fatalf("%v faulted: %v / %v", c.kind, err, run.Err)
		}
		fmt.Fprintf(&b, "== %v under %v (spot, 4 retries)\n", c.kind, plan.Events[0].Kind)
		writePinnedRun(&b, run.Report)
		fmt.Fprintf(&b, "session total %.10g\n", run.SessionUSD)
	}

	// Two cache jobs on a session's standing cluster, one after another.
	nodes := memcache.NodesForCapacity(profile.Cache, pinBytes, shuffle.CacheOversize)
	sess, err := session.Open(profile, session.Options{WarmCacheNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rep, err := sess.Submit(pinnedJob(CacheSupported, i == 0, nil))
		if err != nil {
			t.Fatalf("standing cache run %d: %v", i, err)
		}
		fmt.Fprintf(&b, "== %v on a %d-node standing cluster, run %d\n", CacheSupported, nodes, i+1)
		writePinnedRun(&b, rep)
	}
	bill, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "session standing %.10g total %.10g\n", bill.StandingUSD, bill.TotalUSD)

	// An auto-planned job and the observation it records.
	sess, err = session.Open(profile, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var auto *core.AutoExchange
	rep, err := sess.Submit(pinnedJob(AutoPlanned, true, &auto))
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	fmt.Fprintf(&b, "== %v chose %v\n", AutoPlanned, auto.LastDecision.Chosen.Strategy)
	writePinnedRun(&b, rep)
	writePinnedHistory(t, &b, sess.History())
	if bill, err = sess.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "session standing %.10g total %.10g\n", bill.StandingUSD, bill.TotalUSD)

	got := b.String()
	golden := filepath.Join("testdata", "stage_bills.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("lone-job bills moved.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// pinnedJob is the METHCOMP pipeline runPipeline submits, for a session
// the test keeps open. first stages the input; a later job reads it.
func pinnedJob(kind StrategyKind, first bool, auto **core.AutoExchange) session.Job {
	job := session.Job{
		Name: "methcomp",
		Build: func(rig *calib.Rig) (*core.Workflow, error) {
			var strategy core.ExchangeStrategy
			sortParams := rig.SortParams("data", "sample.bed", "work", "sorted/", 8)
			switch kind {
			case CacheSupported:
				strategy = rig.CacheStrategy(false)
			case AutoPlanned:
				*auto = rig.AutoStrategy(autoplan.Objective{})
				strategy = *auto
				sortParams.Workers = 0
			default:
				return nil, fmt.Errorf("pinned job: no %v", kind)
			}
			return genomics.BuildPipeline(genomics.PipelineConfig{
				InputBucket: "data", InputKey: "sample.bed",
				WorkBucket:  "work",
				Strategy:    strategy,
				Sort:        sortParams,
				EncodeBps:   rig.Profile.EncodeBps,
				EncodeRatio: rig.Profile.EncodeRatio,
			})
		},
	}
	if first {
		job.Prepare = func(p *des.Proc, rig *calib.Rig) error {
			return stageInput(p, rig.Store, "sample.bed", pinBytes)
		}
	}
	return job
}

// writePinnedRun records a run's stage reports and its standing share.
func writePinnedRun(b *strings.Builder, rep *core.RunReport) {
	for _, s := range rep.Stages {
		f, m, c := s.Faas, s.Store, s.Cost
		fmt.Fprintf(b, "%s [%d, %d] err=%v restarts=%d rework=%d fallback=%d\n",
			s.Name, s.Start, s.End, s.Err, s.Restarts, s.ReworkBytes, s.FallbackSlabs)
		fmt.Fprintf(b, "  faas inv=%d cold=%d warm=%d failed=%d retries=%d stragglers=%d exec=%d gbs=%.10g\n",
			f.Invocations, f.ColdStarts, f.WarmStarts, f.FailedAttempts, f.Retries, f.Stragglers, f.ExecTime, f.GBSeconds)
		fmt.Fprintf(b, "  store a=%d b=%d del=%d in=%d out=%d throttled=%d bytesec=%.10g\n",
			m.ClassAOps, m.ClassBOps, m.DeleteOps, m.BytesIn, m.BytesOut, m.Throttled, m.ByteSeconds)
		fmt.Fprintf(b, "  cost functions=%.10g storage=%.10g vm=%.10g cache=%.10g\n",
			c.Functions, c.Storage, c.VM, c.Cache)
	}
	fmt.Fprintf(b, "standing %.10g\n", rep.StandingUSD)
}

// writePinnedHistory records the planner history's sums per family.
func writePinnedHistory(t *testing.T, b *strings.Builder, h *autoplan.History) {
	t.Helper()
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var fams map[string]struct {
		N       int     `json:"n"`
		LogTime float64 `json:"logTime"`
		CostN   int     `json:"costN"`
		LogCost float64 `json:"logCost"`
	}
	if err := json.Unmarshal(raw, &fams); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(b, "history %s n=%d logTime=%.10g costN=%d logCost=%.10g\n", name, f.N, f.LogTime, f.CostN, f.LogCost)
	}
}
