package destest

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Kernel is what the harness runs and reads of a simulation: *des.Sim
// satisfies it, as does des's test-side kernel oracle. Handoffs counts
// the goroutine switches the simulation cost; a kernel that does not
// count them returns 0 on both sides of a Pair.
type Kernel interface {
	Now() time.Duration
	Fired() int64
	Handoffs() int64
	RunUntil(limit time.Duration) error
}

// Transcript is what one form of a scenario did, as lines to compare:
// those its layer writes (a caller's log, meters, the next RNG draw)
// and the one Run writes after each run. End, Err and Handoffs are the
// kernel's after the last run. Counts say what the scenario reached, for
// a sweep to add up, and are not compared.
type Transcript struct {
	Lines    []string
	End      time.Duration
	Err      error
	Handoffs int64
	Counts   map[string]int64
}

// Logf writes one line.
func (tr *Transcript) Logf(format string, args ...any) {
	tr.Lines = append(tr.Lines, fmt.Sprintf(format, args...))
}

// Run runs k to limit (negative: no horizon) and writes the run's line:
// the limit, the error, Now and Fired.
func (tr *Transcript) Run(k Kernel, limit time.Duration) error {
	err := k.RunUntil(limit)
	tr.Logf("run(%d): %v now=%d fired=%d", limit, err, k.Now(), k.Fired())
	tr.End, tr.Err, tr.Handoffs = k.Now(), err, k.Handoffs()
	return err
}

// Run is a form's simulation, built and started. Play calls Stopped
// after a horizon's run and After after the last, for the layer to write
// what it holds then; either may be nil.
type Run struct {
	Kernel         Kernel
	Stopped, After func()
}

// Form plays a scenario one way: it builds the simulation and starts the
// scenario's work, which writes into tr as it goes.
type Form[S any] func(t *testing.T, sc S, tr *Transcript) Run

// Play plays sc in form. With horizon >= 0 it first runs to the
// horizon, which kills every process, then it runs out what is left.
func Play[S any](t *testing.T, form Form[S], sc S, horizon time.Duration) *Transcript {
	tr := &Transcript{Counts: map[string]int64{}}
	run := form(t, sc, tr)
	if horizon >= 0 {
		tr.Run(run.Kernel, horizon)
		if run.Stopped != nil {
			run.Stopped()
		}
	}
	tr.Run(run.Kernel, -1)
	if run.After != nil {
		run.After()
	}
	return tr
}

// Pair is a differential oracle: New is the form production runs, Old
// the form it replaced, kept as a test. Failing lets a run end in an
// error (a panic, a deadlock), which both forms must then end in alike;
// otherwise the old form's last run ending in one fails the test.
type Pair[S any] struct {
	New, Old Form[S]
	Failing  bool
}

// Check plays sc in both forms and fails t at the first line where
// their transcripts part, or where the new form cost more handoffs than
// the old. It returns both transcripts.
func (p Pair[S]) Check(t *testing.T, name string, sc S, horizon time.Duration) (got, want *Transcript) {
	t.Helper()
	want, got = Play(t, p.Old, sc, horizon), Play(t, p.New, sc, horizon)
	if want.Err != nil && !p.Failing {
		t.Fatalf("%s: the old form's run ended in %v", name, want.Err)
	}
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(nothing)"
	}
	for i := 0; i < max(len(got.Lines), len(want.Lines)); i++ {
		if g, w := line(got.Lines, i), line(want.Lines, i); g != w {
			t.Fatalf("%s: line %d:\n new %s\n old %s\nafter %q", name, i+1, g, w, want.Lines[max(i-3, 0):min(i, len(want.Lines))])
		}
	}
	if got.Handoffs > want.Handoffs {
		t.Fatalf("%s: the new form cost %d handoffs, the old %d", name, got.Handoffs, want.Handoffs)
	}
	return got, want
}

// Horizon plays sc in the old form with no stop and draws an instant in
// (0, its end] from r.
func (p Pair[S]) Horizon(t *testing.T, sc S, r *rand.Rand) time.Duration {
	end := Play(t, p.Old, sc, -1).End
	return time.Duration(r.Int63n(max(int64(end), 1))) + 1
}

// Sum is what a sweep adds up over its scenarios: the old form's counts
// and each form's handoffs.
type Sum struct {
	Scenarios int
	Counts    map[string]int64
	New, Old  int64
}

// Sweep checks n scenarios (short of them under -short), the i-th
// drawn by draw, with its horizon or -1, from one source seeded with
// seed.
func (p Pair[S]) Sweep(t *testing.T, n, short int, seed int64, draw func(i int, r *rand.Rand) (S, time.Duration)) Sum {
	t.Helper()
	if testing.Short() {
		n = short
	}
	r := rand.New(rand.NewSource(seed))
	sum := Sum{Scenarios: n, Counts: map[string]int64{}}
	for i := 0; i < n; i++ {
		sc, horizon := draw(i, r)
		got, want := p.Check(t, fmt.Sprintf("scenario %d", i), sc, horizon)
		for what, c := range want.Counts {
			sum.Counts[what] += c
		}
		sum.New, sum.Old = sum.New+got.Handoffs, sum.Old+want.Handoffs
	}
	return sum
}

// Reach fails t unless every count named is above zero: a generator
// that no longer reaches a case tests nothing of it.
func (s Sum) Reach(t *testing.T, what ...string) {
	t.Helper()
	for _, w := range what {
		if s.Counts[w] == 0 {
			t.Errorf("the scenarios no longer reach %s", w)
		}
	}
}

// Fuzz holds the new form to the old on the scenario draw makes of each
// fuzzed input, as Sweep does on its seeds; corpus seeds the fuzzer.
func Fuzz[S, A any](f *testing.F, p Pair[S], draw func(A) (S, time.Duration), corpus ...A) {
	for _, a := range corpus {
		f.Add(a)
	}
	f.Fuzz(func(t *testing.T, a A) {
		sc, horizon := draw(a)
		p.Check(t, "fuzzed scenario", sc, horizon)
	})
}
