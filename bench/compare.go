package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, per workload and end-to-end metric. "a" is the
// parent (or the first set of runs), "b" the change (or the second).
const (
	verdictSame       = "same"       // medians within the bound, spread within the bound
	verdictBetter     = "better"     // b better than a by more than the bound
	verdictWorse      = "worse"      // b worse than a by more than the bound: a regression
	verdictUnresolved = "unresolved" // spread exceeds the bound and the runs overlap: nothing can be said
)

// sample is one side's runs of one metric on one workload.
type sample struct {
	sum    summary
	lo, hi float64 // the range the runs cover
}

// newSample summarises the runs. With a single run the spread comes
// from the quartiles over reps recorded inside it, which is all a
// one-run file knows about its own noise.
func newSample(ms []metric) sample {
	if len(ms) == 1 && ms[0].N > 0 {
		m := ms[0]
		return sample{sum: summary{Median: m.Value, Q1: m.Q1, Q3: m.Q3, N: 1}, lo: m.Q1, hi: m.Q3}
	}
	values := make([]float64, len(ms))
	for i, m := range ms {
		values[i] = m.Value
	}
	sorted := sortedCopy(values)
	return sample{sum: summarize(values), lo: sorted[0], hi: sorted[len(sorted)-1]}
}

// comparison is one row of the table.
type comparison struct {
	A, B sample
	// Worse is how much worse b's median is than a's, as a share of a's
	// (negative: better).
	Worse float64
	// Spread is the larger of the two sides' inter-quartile distances as
	// a share of its median.
	Spread  float64
	Verdict string
}

// judge applies the rule of the choosing-metrics guide: a difference
// counts only beyond the metric's bound, and where the run-to-run
// spread is wider than the bound the metric is unresolved unless every
// run of one side beats every run of the other.
func judge(d metricDef, a, b sample) comparison {
	c := comparison{A: a, B: b}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if a.sum.Median != 0 {
		c.Worse = sign * (b.sum.Median - a.sum.Median) / math.Abs(a.sum.Median)
	}
	c.Spread = math.Max(a.sum.spread(), b.sum.spread())
	bAllBetter, bAllWorse := b.hi < a.lo, b.lo > a.hi
	if d.Better == "higher" {
		bAllBetter, bAllWorse = b.lo > a.hi, b.hi < a.lo
	}
	switch {
	case c.Spread > d.Bound && bAllBetter:
		c.Verdict = verdictBetter
	case c.Spread > d.Bound && bAllWorse && c.Worse > d.Bound:
		c.Verdict = verdictWorse
	case c.Spread > d.Bound:
		c.Verdict = verdictUnresolved
	case c.Worse > d.Bound:
		c.Verdict = verdictWorse
	case c.Worse < -d.Bound:
		c.Verdict = verdictBetter
	default:
		c.Verdict = verdictSame
	}
	return c
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether no row is worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if len(a) == 0 || len(b) == 0 {
		return false, fmt.Errorf("no end-to-end results in %s or %s", pathA, pathB)
	}
	if ea, eb := a[0].Env, b[0].Env; ea.CPUModel != eb.CPUModel || ea.GoVersion != eb.GoVersion || ea.NumCPU != eb.NumCPU {
		fmt.Fprintf(w, "WARNING: the two sides ran in different environments (%s, %s, %d CPUs vs %s, %s, %d CPUs): host metrics do not compare\n",
			ea.CPUModel, ea.GoVersion, ea.NumCPU, eb.CPUModel, eb.GoVersion, eb.NumCPU)
	}
	fmt.Fprintf(w, "a: %s (commit %s, %d runs)   b: %s (commit %s, %d runs)\n",
		pathA, a[0].Env.Commit, len(a), pathB, b[0].Env.Commit, len(b))
	fmt.Fprintf(w, "%-14s %-15s %13s %13s %8s %8s %7s  %-10s %s\n",
		"workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict", "same-seed")
	ok := true
	for _, wl := range workloads() {
		ra, rb := forWorkload(a, wl.name()), forWorkload(b, wl.name())
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		if !allCorrect(ra) || !allCorrect(rb) {
			fmt.Fprintf(w, "%-14s a run failed its correctness checks: its numbers are not compared\n", wl.name())
			ok = false
			continue
		}
		for _, d := range endToEnd {
			c := judge(d, newSample(pick(ra, d.Name)), newSample(pick(rb, d.Name)))
			fmt.Fprintf(w, "%-14s %-15s %13.6g %13.6g %+7.2f%% %7.2f%% %6.1f%%  %-10s %s\n",
				wl.name(), d.Name, c.A.sum.Median, c.B.sum.Median, 100*c.Worse, 100*c.Spread, 100*d.Bound,
				c.Verdict, sameSeed(ra, rb, d.Name))
			if c.Verdict == verdictWorse || c.Verdict == verdictUnresolved {
				ok = false
			}
		}
	}
	return ok, nil
}

func forWorkload(rs []result, name string) []result {
	var out []result
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func allCorrect(rs []result) bool {
	for _, r := range rs {
		if !r.Correct {
			return false
		}
	}
	return true
}

func pick(rs []result, name string) []metric {
	out := make([]metric, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[name])
	}
	return out
}

// sameSeed says whether a simulated metric is exactly equal on every
// seed both sides ran: "exact", "differs", or "-" for host metrics and
// for sides that share no seed.
func sameSeed(a, b []result, name string) string {
	simulatedMetric := false
	for _, s := range simulated {
		simulatedMetric = simulatedMetric || s == name
	}
	if !simulatedMetric {
		return "-"
	}
	bySeed := map[int64][]float64{}
	for _, r := range a {
		bySeed[r.Seed] = append(bySeed[r.Seed], r.Metrics[name].Value)
	}
	shared := false
	for _, r := range b {
		for _, v := range bySeed[r.Seed] {
			shared = true
			if v != r.Metrics[name].Value {
				return "differs"
			}
		}
	}
	if !shared {
		return "-"
	}
	return "exact"
}
