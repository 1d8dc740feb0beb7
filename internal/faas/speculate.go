package faas

import (
	"fmt"
	"math"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

// MapSpeculative's straggler mitigation, in the mold of Spark's
// speculative execution: it arms once SpeculationQuantile of a wave's
// inputs have completed, and an input still running at
// speculationMultiplier x the elapsed time of the arming completion
// gets one backup invocation.
const (
	SpeculationQuantile   = 0.75
	speculationMultiplier = 1.5
)

// SpecReport summarizes one speculative map's duplicate activity.
type SpecReport struct {
	// Backups is how many duplicate invocations were launched.
	Backups int
	// BackupWins is how many inputs were settled by their backup.
	BackupWins int
}

// MapSpeculative invokes name once per input concurrently, like
// MapSync, but with straggler mitigation: once SpeculationQuantile of
// the inputs have completed, every input still running past the backup
// deadline gets one duplicate invocation, and whichever attempt
// completes first settles that input. Handlers must therefore be idempotent (the
// shuffle's are: they PUT deterministic keys). The losing attempt is
// not cancelled — real platforms cannot kill an invocation either —
// so its cost is still metered, which is the price of the makespan
// win.
//
// Results are returned in input order with the first error by input
// order, after every input has settled.
func (pf *Platform) MapSpeculative(p *des.Proc, name string, inputs []any, opts InvokeOptions) ([]any, SpecReport, error) {
	rep := SpecReport{}
	n := len(inputs)
	if n == 0 {
		return nil, rep, nil
	}

	start := p.Now()
	primary := make([]*Future, n)
	for i, in := range inputs {
		primary[i] = pf.InvokeAsync(p, name, in, opts)
	}
	backup := make([]*Future, n)
	results := make([]any, n)
	errs := make([]error, n)
	settled := make([]bool, n)
	completed := 0

	armAt := int(math.Ceil(SpeculationQuantile * float64(n)))
	var (
		armed        bool
		deadline     time.Duration
		timerRunning bool
	)

	settle := func(i int, out any, err error, byBackup bool) {
		results[i] = out
		errs[i] = err
		settled[i] = true
		completed++
		if byBackup {
			rep.BackupWins++
		}
	}

	for completed < n {
		for i := range inputs {
			if settled[i] {
				continue
			}
			if primary[i].Done() {
				out, err := primary[i].Result()
				settle(i, out, err, false)
				continue
			}
			if backup[i] != nil && backup[i].Done() {
				out, err := backup[i].Result()
				settle(i, out, err, true)
			}
		}
		if completed >= n {
			break
		}
		if !armed && completed >= armAt {
			armed = true
			deadline = start + time.Duration(speculationMultiplier*float64(p.Now()-start))
		}
		if armed {
			if p.Now() >= deadline {
				// Past the deadline: every pending input without a
				// backup gets one now.
				for i := range inputs {
					if !settled[i] && backup[i] == nil {
						backup[i] = pf.InvokeAsync(p, name, inputs[i], opts)
						rep.Backups++
					}
				}
			} else if !timerRunning {
				// Arrange to be woken exactly at the deadline so
				// stragglers are duplicated even if nothing else
				// completes in the meantime.
				timerRunning = true
				wait := deadline - p.Now()
				p.Spawn("spec-timer", func(tp *des.Proc) {
					tp.Sleep(wait)
					p.Wake()
				})
			}
		}
		// Park until any pending attempt completes (or the timer fires).
		for i := range inputs {
			if settled[i] {
				continue
			}
			primary[i].notify(p)
			if backup[i] != nil {
				backup[i].notify(p)
			}
		}
		p.Park()
	}

	var firstErr error
	for i, err := range errs {
		if err != nil {
			firstErr = fmt.Errorf("faas: input %d: %w", i, err)
			break
		}
	}
	return results, rep, firstErr
}
