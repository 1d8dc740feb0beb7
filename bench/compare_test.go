package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runsOf(values ...float64) []metric {
	ms := make([]metric, len(values))
	for i, v := range values {
		ms[i] = metric{Value: v}
	}
	return ms
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "host_norm", Unit: "spin", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 125}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"identical", lower, tight, tight, verdictSame},
		{"within the bound", lower, tight, shift(tight, 1.05), verdictSame},
		{"worse beyond the bound", lower, tight, shift(tight, 1.2), verdictWorse},
		{"better beyond the bound", lower, tight, shift(tight, 0.8), verdictBetter},
		{"noisy and overlapping", lower, noisy, shift(noisy, 1.05), verdictUnresolved},
		{"noisy but every run better", lower, noisy, shift(noisy, 0.4), verdictBetter},
		{"noisy but every run worse", lower, noisy, shift(noisy, 2.5), verdictWorse},
		{"one side noisy is enough to be unresolved", lower, tight, noisy, verdictUnresolved},
		{"higher is better: a drop is worse", higher, tight, shift(tight, 0.8), verdictWorse},
		{"higher is better: a rise is better", higher, tight, shift(tight, 1.2), verdictBetter},
		{"higher is better: noisy, every run higher", higher, noisy, shift(noisy, 2.5), verdictBetter},
	} {
		got := judge(c.def, newSample(runsOf(c.a...)), newSample(runsOf(c.b...)))
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q (worse %+.3f, spread %.3f), want %q", c.name, got.Verdict, got.Worse, got.Spread, c.want)
		}
	}
}

func TestJudgeSingleRunsUseTheirOwnQuartiles(t *testing.T) {
	d := metricDef{Name: "host_norm", Better: "lower", Bound: 0.10}
	one := func(v, q1, q3 float64) sample { return newSample([]metric{{Value: v, Q1: q1, Q3: q3, N: 7}}) }
	if got := judge(d, one(100, 99, 101), one(103, 102, 104)); got.Verdict != verdictSame {
		t.Errorf("tight single runs 3%% apart: %q, want same", got.Verdict)
	}
	if got := judge(d, one(100, 85, 115), one(103, 88, 118)); got.Verdict != verdictUnresolved {
		t.Errorf("single runs whose reps spread 30%%: %q, want unresolved", got.Verdict)
	}
	if got := judge(d, one(100, 85, 115), one(50, 42, 58)); got.Verdict != verdictBetter {
		t.Errorf("noisy single runs that do not overlap: %q, want better", got.Verdict)
	}
	// A deterministic metric has no quartiles: any change beyond the
	// bound is resolved.
	sim := metricDef{Name: "virtual_s", Better: "lower", Bound: 0.02}
	if got := judge(sim, newSample(runsOf(73.42)), newSample(runsOf(75.5))); got.Verdict != verdictWorse {
		t.Errorf("virtual_s 73.42 -> 75.5: %q, want worse", got.Verdict)
	}
}

func writeResults(t *testing.T, path string, rs ...result) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range rs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func fakeResult(workload string, seed int64, hostNorm, virtualS float64) result {
	r := result{Workload: workload, Seed: seed, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = metric{Value: 1, Unit: d.Unit}
	}
	r.Metrics["host_norm"] = metric{Value: hostNorm, Unit: "spin", Q1: hostNorm * 0.99, Q3: hostNorm * 1.01, N: 7}
	r.Metrics["virtual_s"] = metric{Value: virtualS, Unit: "s"}
	return r
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl"), filepath.Join(dir, "c.jsonl")
	writeResults(t, a, fakeResult("paper-sweep", 1, 50, 73.4), fakeResult("paper-sweep", 2, 51, 73.5),
		fakeResult("real-bytes", 1, 80, 8.8))
	writeResults(t, b, fakeResult("paper-sweep", 1, 50.5, 73.4), fakeResult("paper-sweep", 2, 51.5, 73.5),
		fakeResult("real-bytes", 1, 81, 8.8))
	writeResults(t, c, fakeResult("paper-sweep", 1, 50, 73.4), fakeResult("paper-sweep", 2, 51, 79.5),
		fakeResult("real-bytes", 1, 120, 8.8))

	var out bytes.Buffer
	ok, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("two sets 1%% apart did not agree:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "exact"); got != 2*len(simulated) {
		t.Errorf("want every simulated metric of both workloads marked exact on shared seeds, got %d marks:\n%s", got, out.String())
	}
	if strings.Contains(out.String(), "zone-chaos") {
		t.Errorf("a workload neither side ran has rows:\n%s", out.String())
	}

	out.Reset()
	ok, err = compareFiles(&out, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("a 50%% host_norm regression on real-bytes passed:\n%s", out.String())
	}
	for _, want := range []string{"worse", "differs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	bad := fakeResult("paper-sweep", 1, 50, 73.4)
	bad.Correct = false
	writeResults(t, c, bad)
	out.Reset()
	if ok, _ := compareFiles(&out, a, c); ok {
		t.Errorf("a side that failed its correctness checks was compared as if it had not:\n%s", out.String())
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("a missing file did not error")
	}
}
