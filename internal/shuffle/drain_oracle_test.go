package shuffle

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// The differential oracle for the timing-only drain: the loop it
// replaced, kept here and nowhere else. That loop is the process pulling
// every chunk itself, parked in Next until the chunk is in and asleep
// through its CPU; the drain is one chain of callbacks with the process
// parked once (meter.drain). The claim is the same events in the same
// order: every scenario runs twice on one seed, once per form, and the
// two runs must agree on every function's completion instant, error and
// bytes pulled, the kernel's event count and final instant, the store's
// meters and open streams, every client's retries and the next number
// out of the simulation's RNG. Only the baton handoffs may differ, and
// only downwards.

// drainByProcess is the drain as a loop, the form that preceded the chain.
func drainByProcess(m *meter, srcs []runSource) (int64, error) {
	var total int64
	for _, src := range srcs {
		r := lineReader{src: src, m: m}
		for !r.eof {
			if err := r.pull(); err != nil && !errors.Is(err, errSizedChunk) {
				return total + r.pos, err
			}
		}
		total += r.pos
	}
	return total, nil
}

// drainByChain is the drain production runs.
func drainByChain(m *meter, srcs []runSource) (int64, error) {
	return m.drain(srcs[0], srcs[1:])
}

// rateClock prices bytes as faas.Ctx.CPUTime does, at a CPU share of
// speed, and fails the test if it is asked once the run was stopped:
// only a chain callback of a killed process could ask it then.
type rateClock struct {
	t     *testing.T
	speed float64
	dead  *bool
}

func (c rateClock) CPUTime(n int64, bps float64) (time.Duration, bool) {
	if *c.dead {
		c.t.Errorf("a chunk was charged after every process was killed")
	}
	if n <= 0 || bps <= 0 {
		return 0, false
	}
	d := time.Duration(float64(n) / bps * float64(time.Second))
	return time.Duration(float64(d) / c.speed), d > 0
}

// drainRun is one source of a drain: a store object read as a stream or
// a resident payload, real or timing-only, read chunk bytes at a time,
// prepull chunks of it read off by a line reader before the drain starts
// (the merge's first chunks, a real run's lines before a sized run shows).
type drainRun struct {
	resident, real bool
	size, chunk    int64
	prepull        int
}

// drainFunc is one function draining its runs from start, at bps on a
// CPU share of speed, charging only its first left bytes.
type drainFunc struct {
	start time.Duration
	bps   float64
	speed float64
	left  int64
	runs  []drainRun
}

type drainScenario struct {
	seed       int64
	cfg        objectstore.Config
	maxRetries int
	brownouts  [][2]time.Duration // start, length, at rate 0.6
	funcs      []drainFunc
}

// drainOracle holds the chain to the loop.
var drainOracle = destest.Pair[drainScenario]{New: drainForm(drainByChain).play, Old: drainForm(drainByProcess).play}

// drainForm is one form of the drain: drainByChain or drainByProcess.
type drainForm func(*meter, []runSource) (int64, error)

// play is the drain oracle's Form: at a horizon, how many functions it
// stopped mid-drain; at the end, each function's done instant, bytes
// pulled and error, the store's meters and open streams, every client's
// retries and the next draw.
func (drain drainForm) play(t *testing.T, sc drainScenario, tr *destest.Transcript) destest.Run {
	sim := des.New(sc.seed)
	svc, err := objectstore.New(sim, sc.cfg)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	dead := false
	inDrain := make([]bool, len(sc.funcs))
	results := make([]string, len(sc.funcs))
	clients := make([]*objectstore.Client, len(sc.funcs))
	for i := range clients {
		clients[i] = objectstore.NewClient(svc)
		clients[i].MaxRetries = sc.maxRetries
	}
	sim.Spawn("setup", func(p *des.Proc) {
		setup := objectstore.NewClient(svc)
		setup.MaxRetries = 30 // the runs are stored whatever the failure rate
		if err := setup.CreateBucket(p, "b"); err != nil {
			t.Errorf("bucket: %v", err)
			return
		}
		for f, fn := range sc.funcs {
			for r, run := range fn.runs {
				if run.resident {
					continue
				}
				if err := setup.Put(p, "b", runKey(f, r), runPayload(run)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}
		for i, b := range sc.brownouts {
			p.Spawn(fmt.Sprintf("brownout-%d", i), func(bp *des.Proc) {
				bp.Sleep(b[0])
				svc.SetBrownout(0.6)
				bp.Sleep(b[1])
				svc.SetBrownout(0)
			})
		}
		for f, fn := range sc.funcs {
			p.Spawn(fmt.Sprintf("fn-%d", f), func(fp *des.Proc) {
				fp.Sleep(fn.start)
				results[f] = runDrainFunc(fp, clients[f], f, fn, &rateClock{t: t, speed: fn.speed, dead: &dead},
					func(m *meter, srcs []runSource) (int64, error) {
						inDrain[f] = true // left set by a kill, which unwinds past the next line
						n, err := drain(m, srcs)
						inDrain[f] = false
						return n, err
					})
			})
		}
	})
	stopped := func() {
		if !errors.Is(tr.Err, des.ErrSimLimit) {
			t.Fatalf("the horizon's run ended in %v", tr.Err)
		}
		dead = true
		n := 0
		for _, in := range inDrain {
			if in {
				n++
			}
		}
		tr.Logf("%d functions killed mid-drain", n)
		tr.Counts["killed"] += int64(n)
	}
	return destest.Run{Kernel: sim, Stopped: stopped, After: func() {
		for f, res := range results {
			tr.Logf("function %d: %s", f, res)
			if !strings.Contains(res, " 0 retries mid-drain") && strings.Contains(res, "retries mid-drain") {
				tr.Counts["throttled"]++
			}
			if strings.Contains(res, "retries exhausted") {
				tr.Counts["exhausted"]++
			}
		}
		retries := make([]int64, len(clients))
		for i, c := range clients {
			retries[i] = c.Retries()
		}
		tr.Logf("meters %+v", svc.Metrics())
		tr.Logf("retries %v", retries)
		tr.Logf("open %v", svc.OpenStreams())
		tr.Logf("next draw %d", sim.Rand().Int63())
		// Coverage: what the scenario reached.
		for _, fn := range sc.funcs {
			if len(fn.runs) == 128 {
				tr.Counts["128-way drains"]++
			}
			if fn.left != math.MaxInt64 {
				tr.Counts["budgets"]++
			}
			for i, run := range fn.runs {
				switch {
				case run.size == 0 && !run.real:
					tr.Counts["Sized(0) runs"]++
				case run.resident:
					tr.Counts["resident runs"]++
				}
				if run.real && run.prepull > 0 && i+1 < len(fn.runs) && !fn.runs[i+1].real {
					tr.Counts["real runs before sized ones"]++
				}
			}
		}
	}}
}

// runDrainFunc opens a function's runs, reads the prepulls, drains the
// rest and closes them, as a reducer does, and reports how it ended.
func runDrainFunc(p *des.Proc, c *objectstore.Client, f int, fn drainFunc, clock cpuClock, drain func(*meter, []runSource) (int64, error)) string {
	m := &meter{p: p, clock: clock, bps: fn.bps, left: fn.left}
	srcs := make([]runSource, 0, len(fn.runs))
	defer func() {
		for _, s := range srcs {
			s.Close()
		}
	}()
	for r, run := range fn.runs {
		if run.resident {
			srcs = append(srcs, &payloadSource{pl: runPayload(run), chunk: run.chunk})
			continue
		}
		st, err := c.GetStream(p, "b", runKey(f, r), 0, -1, objectstore.StreamOptions{ChunkBytes: run.chunk})
		if err != nil {
			return fmt.Sprintf("open %d at %d: %v", r, p.Now(), err)
		}
		srcs = append(srcs, st)
	}
	var before int64
	for i, run := range fn.runs {
		r := lineReader{src: srcs[i], m: m}
		for k := 0; k < run.prepull && !r.eof; k++ {
			if err := r.pull(); err != nil && !errors.Is(err, errSizedChunk) {
				return fmt.Sprintf("prepull %d at %d: %v", i, p.Now(), err)
			}
		}
		before += r.pos
	}
	retries := c.Retries()
	n, err := drain(m, srcs)
	return fmt.Sprintf("done at %d: %d pulled, %d retries mid-drain, %v", p.Now(), before+n, c.Retries()-retries, err)
}

func runKey(f, r int) string { return fmt.Sprintf("fn%d/run%d", f, r) }

func runPayload(run drainRun) payload.Payload {
	if !run.real {
		return payload.Sized(run.size)
	}
	raw := make([]byte, run.size)
	for i := range raw {
		raw[i] = 'a' + byte(i%26)
	}
	return payload.RealNoCopy(raw)
}

func genDrainScenario(r *rand.Rand, seed int64) drainScenario {
	sc := drainScenario{
		seed: seed,
		cfg: objectstore.Config{
			RequestLatency:   time.Duration(r.Intn(4)) * time.Millisecond,
			PerConnBandwidth: 1e6 * (0.5 + 4*r.Float64()),
			ReadOpsPerSec:    1e6,
			WriteOpsPerSec:   1e6,
			OpsBurst:         1e6,
		},
		maxRetries: 1 + r.Intn(4),
	}
	if r.Intn(3) == 0 { // the backend is the bottleneck
		sc.cfg.AggregateBandwidth = 1e6 * (0.5 + 3*r.Float64())
	}
	if r.Intn(4) == 0 { // opens queue behind the read throttle
		sc.cfg.ReadOpsPerSec = 200 + 2000*r.Float64()
		sc.cfg.OpsBurst = float64(1 + r.Intn(8))
	}
	if r.Intn(3) == 0 {
		sc.cfg.FailureRate = 0.4 * r.Float64()
	}
	for at := time.Duration(0); r.Intn(3) == 0 && len(sc.brownouts) < 4; {
		at += time.Duration(1+r.Intn(60)) * time.Millisecond
		sc.brownouts = append(sc.brownouts, [2]time.Duration{at, time.Duration(1+r.Intn(40)) * time.Millisecond})
	}
	nf := 1 + r.Intn(4)
	for f := 0; f < nf; f++ {
		ns := []int{1, 1 + r.Intn(4), 1 + r.Intn(16), 128}[r.Intn(4)]
		fn := drainFunc{
			start: time.Duration(r.Intn(20)) * time.Millisecond,
			bps:   1e6 * (0.2 + 5*r.Float64()),
			speed: []float64{1, 0.5, 1.7, 1 / 3.0}[r.Intn(4)],
			left:  math.MaxInt64,
		}
		maxSize := int64(60_000)
		if ns > 16 {
			maxSize = 6_000
		}
		var total int64
		for i := 0; i < ns; i++ {
			run := drainRun{
				resident: r.Intn(4) == 0,
				real:     r.Intn(4) == 0,
				size:     r.Int63n(maxSize),
			}
			if r.Intn(6) == 0 {
				run.size = 0
			}
			switch r.Intn(3) {
			case 0: // chunks that divide the run
				run.chunk = max(run.size/int64(1+r.Intn(6)), 1)
				for run.size > 0 && run.size%run.chunk != 0 {
					run.chunk--
				}
			case 1:
				run.chunk = 1 + r.Int63n(max(run.size, 1))
			default:
				run.chunk = 1 + r.Int63n(20_000)
			}
			if r.Intn(3) == 0 {
				run.prepull = 1 + r.Intn(3)
			}
			total += run.size
			fn.runs = append(fn.runs, run)
		}
		if ns == 1 && r.Intn(2) == 0 { // a map slice: the overscan is read but not charged
			fn.left = total * int64(1+r.Intn(9)) / 10
		}
		sc.funcs = append(sc.funcs, fn)
	}
	return sc
}

// TestSizedDrainChainMatchesProcessForm replays seeded drains, 1 to 4
// functions at once over 1 to 128 runs, through both forms.
func TestSizedDrainChainMatchesProcessForm(t *testing.T) {
	sum := drainOracle.Sweep(t, 300, 60, 35, func(i int, r *rand.Rand) (drainScenario, time.Duration) {
		return genDrainScenario(r, int64(3500+i)), -1
	})
	c := sum.Counts
	t.Logf("%d scenarios: %d 128-way drains, %d Sized(0) runs, %d budgets, %d resident runs, %d real runs before sized ones, %d drains throttled mid-way, %d functions out of retries; %d handoffs against the loop's %d",
		sum.Scenarios, c["128-way drains"], c["Sized(0) runs"], c["budgets"], c["resident runs"], c["real runs before sized ones"], c["throttled"], c["exhausted"], sum.New, sum.Old)
	sum.Reach(t, "128-way drains", "Sized(0) runs", "budgets", "resident runs", "real runs before sized ones", "throttled", "exhausted")
	if sum.New >= sum.Old {
		t.Fatalf("the chain costs %d handoffs, the loop %d", sum.New, sum.Old)
	}
}

// TestSizedDrainKilledMidDrain stops seeded drains at a horizon, which
// kills every process, some of them parked in a drain chain, then runs
// what is left on the heap out. The chain's pending wait is the killed
// process's own wake, so killLive cancels it: no chain callback fires in
// the resumed run (rateClock fails the test if one charges a chunk), and
// no chain state outlives its process to be used again. Both forms fire
// the same events to the same instant and leave the store the same.
func TestSizedDrainKilledMidDrain(t *testing.T) {
	sum := drainOracle.Sweep(t, 120, 30, 36, func(i int, r *rand.Rand) (drainScenario, time.Duration) {
		sc := genDrainScenario(r, int64(4500+i))
		return sc, drainOracle.Horizon(t, sc, r)
	})
	t.Logf("%d scenarios: %d functions killed mid-drain", sum.Scenarios, sum.Counts["killed"])
	sum.Reach(t, "killed")
}

// FuzzSizedDrain draws a scenario from each fuzzed seed and holds the
// chain to the loop on it, as TestSizedDrainChainMatchesProcessForm does
// on its fixed seeds.
func FuzzSizedDrain(f *testing.F) {
	destest.Fuzz(f, drainOracle, func(seed int64) (drainScenario, time.Duration) {
		return genDrainScenario(rand.New(rand.NewSource(seed)), seed), -1
	}, 1, 35, 3500)
}
