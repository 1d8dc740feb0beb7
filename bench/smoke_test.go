package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload runs each workload's rep once at reduced size
// and checks what it produced. It is what keeps the harness compiling
// and passing against the internal/ packages' APIs when `go test
// -short ./...` runs here.
func TestSmokeEveryWorkload(t *testing.T) {
	clk := &hostClock{sp: newSpinner()}
	for _, w := range workloads() {
		if err := w.prepare(0, true); err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		rep, err := runRep(w, nil, clk)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		out := rep.out
		if out.failed != 0 || out.attempted < 1 {
			t.Errorf("%s: failed %d of %d: %v", w.name(), out.failed, out.attempted, out.failures)
		}
		if out.verify != nil {
			if bad := out.verify(true); len(bad) > 0 {
				t.Errorf("%s: output checks: %v", w.name(), bad)
			}
		}
		for _, name := range simulated {
			if out.sim[name] <= 0 {
				t.Errorf("%s: simulated metric %s = %v, want positive", w.name(), name, out.sim[name])
			}
		}
		for name := range out.counters {
			if _, ok := findMetric(perLayer, name); !ok && name != "memcache.hits" {
				t.Errorf("%s: counter %s is not in the per-layer catalogue", w.name(), name)
			}
		}
		if rep.norm <= 0 || rep.wall <= 0 || rep.allocMB <= 0 {
			t.Errorf("%s: host measurements %+v", w.name(), rep)
		}
	}
}

// TestMeasureReportsEveryEndToEndMetric runs the whole flow (set-ups,
// first rep, timed window, checks) on one reduced-size workload.
func TestMeasureReportsEveryEndToEndMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven reduced-size reps")
	}
	res, err := runWorkload("paper-sweep", config{short: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
	}
	if res.Reps < minReps || len(res.PerRep) != res.Reps {
		t.Errorf("%d timed reps (%d recorded), want at least %d", res.Reps, len(res.PerRep), minReps)
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, want exactly the %d end-to-end ones", len(res.Metrics), len(endToEnd))
	}
	if n := res.Metrics["setup_s"].N; n != setups {
		t.Errorf("setup_s is the median of %d set-ups, want %d", n, setups)
	}
	line := contractLine(res)
	if line.Attempted < 1 || !line.Correct || len(line.Metrics) != len(endToEnd) {
		t.Errorf("contract line %+v", line)
	}
	if res.Env.GOMAXPROCS != 1 || res.Env.NumCPU < 1 || res.Env.GoVersion == "" || res.Env.SpinMs <= 0 {
		t.Errorf("environment record %+v", res.Env)
	}
}

func TestSeedChangesInputsAndRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three more reduced-size workloads")
	}
	run := func(seed int64) *result {
		res, err := runWorkload("gateway-scale", config{seed: seed, short: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("seed %d: %v", seed, res.Failures)
		}
		return res
	}
	a, b, c := run(3), run(3), run(4)
	for _, name := range simulated {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s differs between two runs of seed 3: %v vs %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if a.Metrics["virtual_s"].Value == c.Metrics["virtual_s"].Value {
		t.Errorf("seeds 3 and 4 produced the same virtual_s %v: the seed does not reach the inputs", a.Metrics["virtual_s"].Value)
	}
}

// TestTracedRun checks the per-layer report and the span accounting on
// the workload that has both stages and real bytes.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes take several seconds")
	}
	res, err := runWorkload("real-bytes", config{short: true, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("failures: %v", res.Failures)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s not reported", d.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want exactly the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"des.schedule_fire_ns", "objectstore.put_get_ns", "faas.invoke_ns", "memcache.set_get_ns",
		"vm.run_parallel_ns", "shuffle.sort_sized_w128_norm", "shuffle.sort_real_mb_per_s", "autoplan.plan_ms",
		"bed.sort_mrec_per_s", "methcomp.ratio", "core.run_overhead_us", "gateway.submit_ns", "des.events",
		"core.stage.sort.host_share", "core.stage.encode.host_share", "runtime.wall_s_maxprocs_n"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want positive", name, res.Metrics[name].Value)
		}
	}
	att := attribute(res.spans)
	covered := att.share("des") + att.share("core.stage.sort") + att.share("core.stage.encode")
	if covered < 0.95 || covered > 1.0000001 {
		t.Errorf("stage and des self times cover %.3f of the traced reps' host time, want within 5%%", covered)
	}
	var reps, units, stages int
	for _, s := range res.spans {
		switch s.Kind {
		case kindRep:
			reps++
		case kindUnit:
			units++
		case kindStage:
			stages++
		}
	}
	if reps < 1 || units != 3*reps || stages != 2*units {
		t.Errorf("spans: %d reps, %d units, %d stages; want 3 pipelines a rep and 2 stages a pipeline", reps, units, stages)
	}
	if err := writeJSONL(filepath.Join(t.TempDir(), "trace.jsonl"), res.spans); err != nil {
		t.Error(err)
	}
}

// flaky is a workload whose simulated result drifts from rep to rep.
type flaky struct{ reps int }

func (f *flaky) name() string              { return "flaky" }
func (f *flaky) prepare(int64, bool) error { return nil }
func (f *flaky) rep(*tracer, *hostClock) (*outcome, error) {
	f.reps++
	out := newOutcome()
	out.attempted = 1
	for _, name := range simulated {
		out.sim[name] = 1
	}
	out.sim["virtual_s"] = float64(f.reps)
	return out, nil
}

func TestRepsThatDisagreeFailTheRun(t *testing.T) {
	res, err := measure(func() workload { return &flaky{} }, config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a workload whose virtual_s changes every rep passed: %+v", res)
	}
	if !strings.Contains(fmt.Sprint(res.Failures), "virtual_s") {
		t.Errorf("failures do not name the metric: %v", res.Failures)
	}
}
