package main

import (
	"fmt"
	"runtime"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	name() string
	// prepare builds the workload's inputs from the seed. It is set-up:
	// everything the program later receives is generated here.
	prepare(seed int64, short bool) error
	// rep runs the workload once. tr is nil with tracing off; clk is
	// offered a cut between the rep's units and may be nil.
	rep(tr *tracer, clk *hostClock) (*outcome, error)
}

func workloads() []workload {
	return []workload{&paperSweep{}, &zoneChaos{}, &gatewayScale{}, &realBytes{}}
}

// outcome is what one rep produced on the simulated clock. Everything
// in it is a pure function of the seed: two reps of one run must agree
// on every value, and the harness fails the run when they do not.
type outcome struct {
	// sim holds the simulated end-to-end metrics.
	sim map[string]float64
	// counters holds per-layer counts read from public accessors.
	counters counters
	// attempted / failed count operations: pipeline runs, chaos cells,
	// sweep points, gateway tickets.
	attempted, failed int
	failures          []string
	// verify checks the rep's outputs outside the timed window and
	// returns what is wrong. full asks for the byte-level checks, which
	// run on the first and last rep; the others compare hashes.
	verify func(full bool) []string
}

func newOutcome() *outcome {
	return &outcome{sim: map[string]float64{}, counters: counters{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// Seed streams: each generated input draws from its own stream so that
// changing one workload's inputs never reshuffles another's.
const (
	streamProfile = iota + 1
	streamData
	streamArrivals
)

// seedFor derives a stream's seed from the benchmark seed. Seed 0 is
// canonical: every stream gets the value the repo ships with, so the
// golden numbers apply.
func seedFor(seed, stream, canonical int64) int64 {
	if seed == 0 {
		return canonical
	}
	// splitmix64 over (seed, stream)
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // keep it positive: some generators reject negative seeds
}

// timedRep is one rep's host-side measurements.
type timedRep struct {
	wall      time.Duration
	norm      float64
	allocMB   float64
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	out       *outcome
}

// runRep runs one rep on the host clock and between two memory
// snapshots.
func runRep(w workload, tr *tracer, clk *hostClock) (timedRep, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	clk.start()
	rs := tr.begin(w.name(), kindRep)
	out, err := w.rep(tr, clk)
	tr.end(rs)
	clk.stop()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return timedRep{}, err
	}
	return timedRep{
		wall:      clk.wall,
		norm:      clk.norm,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocs:   m1.Mallocs - m0.Mallocs,
		gcCycles:  m1.NumGC - m0.NumGC,
		gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		out:       out,
	}, nil
}
