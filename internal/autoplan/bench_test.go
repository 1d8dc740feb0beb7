package autoplan_test

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
)

var planSink autoplan.Decision

// BenchmarkPlan is one full decision at the paper's volume: the call
// every auto-planned sort stage makes once.
func BenchmarkPlan(b *testing.B) {
	p := calib.Paper()
	wl, env := calib.PlanWorkload(p, 3500e6), calib.PlanEnv(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := autoplan.Plan(wl, env, autoplan.Objective{})
		if err != nil {
			b.Fatal(err)
		}
		planSink = dec
	}
}
