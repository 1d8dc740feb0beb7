package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// short runs every workload at reduced size (the test suite's smoke).
	short bool
}

const (
	// setups is how many times set-up is repeated; setup_s is the median.
	setups = 3
	// minReps is the fewest timed reps a run reports a median of, however
	// short the window.
	minReps = 3
)

// metric is one reported value. Timings carry the quartiles and sample
// count behind the median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// repRecord is one timed rep as measured on the host.
type repRecord struct {
	WallS    float64 `json:"wall_s"`
	Norm     float64 `json:"norm"`
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles uint32  `json:"gc_cycles"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Reps      int               `json:"reps"`
	Env       envInfo           `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// SetupRawS is each set-up's host time as the wall clock saw it.
	SetupRawS []float64 `json:"setup_raw_s"`
	// PerRep keeps every timed rep's host measurements, so a surprising
	// median can be looked into after the fact.
	PerRep []repRecord `json:"per_rep"`

	spans []*span
}

func newWorkload(name string) workload {
	for _, w := range workloads() {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// runWorkload measures the named workload.
func runWorkload(name string, cfg config) (*result, error) {
	if newWorkload(name) == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return measure(func() workload { return newWorkload(name) }, cfg)
}

// referenceSpin is what one calibration spin took on the box this
// benchmark was defined on, in the speed regime it was in most often.
const referenceSpin = 40 * time.Millisecond

// setupSeconds turns a set-up's host time in spins into seconds at the
// reference box's speed. setup_s has to be in seconds, and raw seconds
// on a shared box move with the box: the medians of two back-to-back
// sets of ten runs of one commit differed by 17% on gateway-scale and
// 13% on paper-sweep, against a bound of 25%. The raw seconds are kept
// in the results record (setup_raw_s).
func setupSeconds(spins float64) float64 { return spins * referenceSpin.Seconds() }

// measure sets a workload up, runs it for the configured window and
// checks what it produced. fresh returns a new instance each call: the
// measured one and the reduced-size ones that warm the process up.
func measure(fresh func() workload, cfg config) (*result, error) {
	w := fresh()
	name := w.name()
	// The simulation runs one process at a time, so one P is the honest
	// configuration: a second P only lets the runtime's own background
	// work wander between cores.
	prevProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prevProcs)

	res := &result{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Metrics: map[string]metric{}}
	clk := &hostClock{sp: newSpinner()}

	// Set-up, repeated: build the inputs from the seed, then warm the
	// process with a reduced-size rep of the same workload. Both halves
	// are timed between calibration spins like a rep is; see setupSeconds.
	var setupS []float64
	for i := 0; i < setups; i++ {
		warm := fresh()
		before := clk.takeSpin()
		start := time.Now()
		if err := w.prepare(cfg.seed, cfg.short); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		if err := warm.prepare(cfg.seed, true); err != nil {
			return nil, fmt.Errorf("%s: warm-up set-up: %w", name, err)
		}
		prepared := time.Since(start)
		after := clk.takeSpin()
		rep, err := runRep(warm, nil, clk)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
		res.SetupRawS = append(res.SetupRawS, (prepared + rep.wall).Seconds())
		setupS = append(setupS, setupSeconds(normalise(prepared, before, after)+rep.norm))
	}

	// The first full rep is warm-up too: it grows the heap to the
	// workload's size (real-bytes' first rep takes twice as long as its
	// second). It is checked in full and then left out of every timing.
	warm, err := runRep(w, nil, clk)
	if err != nil {
		return nil, fmt.Errorf("%s: first rep: %w", name, err)
	}
	first := warm.out
	res.absorb(first, "first rep", nil)
	res.verify(first, true)

	var tr *tracer
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// A traced run alternates reps with tracing off and on; the
		// difference is the tracing overhead. The probes follow.
		tr = newTracer(clk)
	}
	// Each rep's outputs are checked as soon as it ends and then let go,
	// so the live heap a rep starts from is the same for every rep. The
	// window closes before the rep that would overrun it; the last rep
	// inside it gets the full check.
	var plain, traced []timedRep
	start := time.Now()
	for i := 1; ; i++ {
		repStart := time.Now()
		var rep timedRep
		if cfg.trace && i%2 == 0 {
			rep, err = runRep(w, tr, clk)
			traced = append(traced, rep)
		} else {
			rep, err = runRep(w, nil, clk)
			plain = append(plain, rep)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", name, i, err)
		}
		res.absorb(rep.out, fmt.Sprintf("rep %d", i), first)
		enough := len(plain) >= minReps
		if cfg.trace {
			enough = len(plain) >= 1 && len(traced) >= 1
		}
		final := enough && time.Since(start)+time.Since(repStart) >= window
		res.verify(rep.out, final)
		if final {
			break
		}
	}
	res.Reps = len(plain)
	for _, r := range plain {
		res.PerRep = append(res.PerRep, repRecord{WallS: r.wall.Seconds(), Norm: r.norm, AllocMB: r.allocMB, GCCycles: r.gcCycles})
	}

	if !cfg.trace {
		res.put(endToEnd, "setup_s", summarize(setupS))
		res.put(endToEnd, "host_norm", summarize(column(plain, func(r timedRep) float64 { return r.norm })))
		res.put(endToEnd, "alloc_mb", summarize(column(plain, func(r timedRep) float64 { return r.allocMB })))
		for _, name := range simulated {
			res.putValue(endToEnd, name, first.sim[name])
		}
	} else {
		res.spans = tr.spans
		res.perLayer(w, first, plain, traced, clk)
	}
	res.Env = readEnv(median(clk.spins))
	res.Correct = res.Failed == 0 && len(res.Failures) == 0
	return res, nil
}

func column(reps []timedRep, f func(timedRep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// absorb adds a rep's operation counts and holds it to the first rep's
// simulated values: a deterministic simulator must repeat them exactly.
func (res *result) absorb(out *outcome, rep string, first *outcome) {
	res.Attempted += out.attempted
	res.Failed += out.failed
	for _, f := range out.failures {
		res.fail("%s: %s", rep, f)
	}
	if first == nil {
		return
	}
	if diff := differing(first.sim, out.sim); diff != "" {
		res.Failed++
		res.fail("%s: simulated metric %s differs from the first rep", rep, diff)
	}
	if diff := differing(first.counters, out.counters); diff != "" {
		res.Failed++
		res.fail("%s: counter %s differs from the first rep", rep, diff)
	}
}

// differing names the first key (in sorted order) on which two value
// sets disagree, with both values; "" when they are equal.
func differing(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s (%v vs %v)", k, a[k], b[k])
		}
	}
	return ""
}

// verify checks a rep's outputs and then drops the rep's hold on them.
func (res *result) verify(out *outcome, full bool) {
	if out.verify == nil {
		return
	}
	for _, f := range out.verify(full) {
		res.Failed++
		res.fail("%s", f)
	}
	out.verify = nil
}

// fail records a failure message, keeping the list readable when
// something fails on every rep.
func (res *result) fail(format string, args ...any) {
	const keep = 20
	if len(res.Failures) < keep {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	} else if len(res.Failures) == keep {
		res.Failures = append(res.Failures, "(further failures not listed)")
	}
}

// put reports a timing with its quartiles, putValue a single value. A
// name outside the catalogue is a bug in the harness.
func (res *result) put(defs []metricDef, name string, s summary) {
	res.putValue(defs, name, s.Median)
	m := res.Metrics[name]
	m.Q1, m.Q3, m.N = s.Q1, s.Q3, s.N
	res.Metrics[name] = m
}

func (res *result) putValue(defs []metricDef, name string, v float64) {
	d, ok := findMetric(defs, name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	res.Metrics[name] = metric{Value: v, Unit: d.Unit}
}

// perLayer fills in every per-layer metric: the workload's counters,
// the span attribution of the traced reps, the runtime's own numbers
// and the probes. A layer the workload does not exercise reports 0.
func (res *result) perLayer(w workload, first *outcome, plain, traced []timedRep, clk *hostClock) {
	for _, d := range perLayer {
		res.putValue(perLayer, d.Name, first.counters[d.Name])
	}
	if gets := first.counters["memcache.get_ops"]; gets > 0 {
		res.putValue(perLayer, "memcache.hit_ratio", first.counters["memcache.hits"]/gets)
	}
	if ev := first.counters["des.events"]; ev > 0 {
		walls := column(plain, func(r timedRep) float64 { return r.wall.Seconds() })
		res.putValue(perLayer, "des.ns_per_event", median(walls)*1e9/ev)
	}
	if res.Attempted > 0 {
		res.putValue(perLayer, "harness.failed_share", float64(res.Failed)/float64(res.Attempted))
	}

	att := attribute(res.spans)
	res.putValue(perLayer, "des.host_share", att.share("des"))
	res.putValue(perLayer, "core.stage.sort.host_share", att.share("core.stage.sort"))
	res.putValue(perLayer, "core.stage.encode.host_share", att.share("core.stage.encode"))
	uncovered := att.share("harness")
	res.putValue(perLayer, "harness.host_share", uncovered)
	if uncovered > 0.05 {
		res.fail("traced reps: stage and des self times cover only %.1f%% of host time", 100*(1-uncovered))
	}
	plainNorm := median(column(plain, func(r timedRep) float64 { return r.norm }))
	tracedNorm := median(column(traced, func(r timedRep) float64 { return r.norm }))
	if plainNorm > 0 {
		res.putValue(perLayer, "runtime.trace_overhead_pct", 100*(tracedNorm/plainNorm-1))
	}

	res.put(perLayer, "runtime.mallocs_k", summarize(column(plain, func(r timedRep) float64 { return float64(r.mallocs) / 1e3 })))
	res.put(perLayer, "runtime.gc_cycles", summarize(column(plain, func(r timedRep) float64 { return float64(r.gcCycles) })))
	res.put(perLayer, "runtime.gc_pause_ms", summarize(column(plain, func(r timedRep) float64 { return float64(r.gcPauseNs) / 1e6 })))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.putValue(perLayer, "runtime.heap_sys_mb", float64(ms.HeapSys)/1e6)

	// One rep at the default GOMAXPROCS, raw wall: what a user who does
	// not pin the simulator to one P sees.
	runtime.GOMAXPROCS(runtime.NumCPU())
	rep, err := runRep(w, nil, clk)
	runtime.GOMAXPROCS(1)
	if err != nil {
		res.fail("rep at GOMAXPROCS=%d: %v", runtime.NumCPU(), err)
	} else {
		res.absorb(rep.out, "rep at default GOMAXPROCS", first)
		res.putValue(perLayer, "runtime.wall_s_maxprocs_n", rep.wall.Seconds())
	}

	probes := runProbes(clk.sp)
	for name, v := range probes.values {
		res.putValue(perLayer, name, v)
	}
	for _, f := range probes.failures {
		res.fail("%s", f)
	}
	res.putValue(perLayer, "harness.spin_ms", median(clk.spins)*1e3)
}

// envInfo is recorded with every result so that numbers from different
// boxes or toolchains are never compared silently.
type envInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	SpinMs     float64 `json:"calibration_spin_ms"`
}

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository.
var commit = "unknown"

func readEnv(spinSeconds float64) envInfo {
	return envInfo{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		SpinMs:     spinSeconds * 1e3,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
