package autoplan_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// modelTableGolden pins every number the function-family model and the
// planner around it produce: it was recorded on the code before the
// wave model existed and is only ever compared, never rewritten. Planner
// rows carry ModelTime to the microsecond and ModelUSD to the
// nano-dollar (three orders finer than anything faasbench prints);
// shuffle.Predict and PredictHierarchical rows carry all five Plan
// components to the nanosecond.
const modelTableGolden = "testdata/model_table.golden"

// modelEnvs are the planner environments of the table, each a change to
// calib.PlanEnv(profile) and the profile's workload.
var modelEnvs = []struct {
	name  string
	apply func(p calib.Profile, wl *autoplan.Workload, env *autoplan.Env)
}{
	{"healthy", func(calib.Profile, *autoplan.Workload, *autoplan.Env) {}},
	{"zone-outage-2/h-3-zones", func(_ calib.Profile, _ *autoplan.Workload, env *autoplan.Env) {
		env.ZoneOutagePerHour = 2
		env.Zones = 3
	}},
	{"standing-cache-2-nodes", func(_ calib.Profile, _ *autoplan.Workload, env *autoplan.Env) {
		env.CacheStandingNodes = 2
	}},
	{"standing-vm", func(p calib.Profile, _ *autoplan.Workload, env *autoplan.Env) {
		env.VMStandingType = p.InstanceType
	}},
	{"cache-quota-1-node", func(_ calib.Profile, _ *autoplan.Workload, env *autoplan.Env) {
		env.CacheMaxNodes = 1
	}},
	{"max-workers-2", func(_ calib.Profile, wl *autoplan.Workload, _ *autoplan.Env) {
		wl.MaxWorkers = 2
	}},
	{"pinned-8-workers", func(_ calib.Profile, wl *autoplan.Workload, _ *autoplan.Env) {
		wl.Workers = 8
	}},
}

func renderModelTable() []byte {
	var b bytes.Buffer
	for _, p := range []calib.Profile{calib.Paper(), calib.Local()} {
		for _, bytesIn := range []int64{350e6, 3500e6, 35000e6} {
			var ladder []int
			for _, e := range modelEnvs {
				wl, env := calib.PlanWorkload(p, bytesIn), calib.PlanEnv(p)
				e.apply(p, &wl, &env)
				fmt.Fprintf(&b, "== %s %d bytes, %s\n", p.Name, bytesIn, e.name)
				for i, obj := range []autoplan.Objective{{Goal: autoplan.MinTime}, {Goal: autoplan.MinCost}} {
					dec, err := autoplan.Plan(wl, env, obj)
					if i == 0 {
						for _, c := range dec.Candidates {
							writeCandidate(&b, "  ", c)
							if e.name == "healthy" && c.Strategy == autoplan.ObjectStorage {
								ladder = append(ladder, c.Workers)
							}
						}
					}
					if err != nil {
						fmt.Fprintf(&b, "%s: error: %v\n", obj.Goal, err)
						continue
					}
					writeCandidate(&b, obj.Goal.String()+": chosen ", dec.Chosen)
					fmt.Fprintf(&b, "%s: speculation arm=%v: %s\n", obj.Goal, dec.Speculation.Arm, dec.Speculation.Reason)
				}
			}
			writePredictions(&b, p, bytesIn, ladder)
		}
	}
	return b.Bytes()
}

func writeCandidate(b *bytes.Buffer, prefix string, c autoplan.Candidate) {
	if !c.Feasible {
		fmt.Fprintf(b, "%s%-15s %-28s infeasible: %s\n", prefix, c.Strategy, c.Config(), c.Reason)
		return
	}
	fmt.Fprintf(b, "%s%-15s %-28s %14.6f s %14.9f $\n", prefix, c.Strategy, c.Config(), c.ModelTime.Seconds(), c.ModelUSD)
}

// writePredictions renders shuffle.Predict at every worker count of the
// planner's ladder and PredictHierarchical at every divisor of each.
func writePredictions(b *bytes.Buffer, p calib.Profile, bytesIn int64, ladder []int) {
	in := calib.PlanInput(p, bytesIn)
	sp := shuffle.ProfileOf(p.Store)
	fmt.Fprintf(b, "== %s %d bytes, shuffle.Predict / PredictHierarchical (ns)\n", p.Name, bytesIn)
	row := func(label string, pl shuffle.Plan) {
		fmt.Fprintf(b, "  %-12s predicted=%d startup=%d p1io=%d p1cpu=%d p2io=%d p2cpu=%d\n", label,
			int64(pl.Predicted), int64(pl.Startup), int64(pl.Phase1IO), int64(pl.Phase1CPU),
			int64(pl.Phase2IO), int64(pl.Phase2CPU))
	}
	for _, w := range ladder {
		row(fmt.Sprintf("w=%d", w), shuffle.Predict(w, in, sp))
		for g := 1; g <= w; g++ {
			if w%g == 0 {
				row(fmt.Sprintf("w=%d g=%d", w, g), shuffle.PredictHierarchical(w, g, in, sp))
			}
		}
	}
}

// TestModelTableGolden compares the rendered table with the recorded
// one. There is deliberately no -update flag: the file is the fixed
// point the model is refactored against.
func TestModelTableGolden(t *testing.T) {
	got := renderModelTable()
	want, err := os.ReadFile(modelTableGolden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	diffs := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			if diffs++; diffs <= 10 {
				t.Errorf("line %d:\n  got  %s\n  want %s", i+1, g, w)
			}
		}
	}
	t.Fatalf("%d of %d lines differ from %s", diffs, len(wl), modelTableGolden)
}
