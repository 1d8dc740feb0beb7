package gateway_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/gateway"
	"github.com/faaspipe/faaspipe/internal/session"
)

// TestProcessNamesPinned pins the names that deadlock and panic reports
// give the processes the gateway, the function platform and Fan spawn
// numbered, and one spawned by name: gw/<tenant>/<launch>,
// faas/<function>#<invocation>, <prefix><index> and the name itself.
// Ten jobs and eleven invocations go first, so the numbers have two
// digits. (A part upload's puts-part-<n> is pinned in objectstore's
// TestPartUploadNamePinned.)
func TestProcessNamesPinned(t *testing.T) {
	park := func(p *des.Proc) { p.Park() }
	err := runNamedProcesses(t, "", park)
	var dl *des.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("run: %v, want a deadlock", err)
	}
	want := []string{"faas/last#12", "fan-11", "fanner", "gw/t-7/11", "plain"}
	if !reflect.DeepEqual(dl.Parked, want) {
		t.Errorf("parked %q, want %q", dl.Parked, want)
	}

	for kind, want := range map[string]string{
		"gateway": "gw/t-7/11",
		"faas":    "faas/last#12",
		"fan":     "fan-11",
		"plain":   "plain",
	} {
		err := runNamedProcesses(t, kind, func(*des.Proc) { panic("stop") })
		var pe *des.PanicError
		if !errors.As(err, &pe) || pe.Proc != want || pe.Value != "stop" {
			t.Errorf("%s: run: %v, want process %q to panic", kind, err, want)
		}
	}
}

// runNamedProcesses runs, on one session, eleven gateway jobs of tenant
// t-7, twelve invocations, a Fan of twelve children and a process named
// "plain". The last job, the last invocation, the last Fan child and
// "plain" call stop; with kind set, only the one of that kind does.
func runNamedProcesses(t *testing.T, kind string, stop func(p *des.Proc)) error {
	t.Helper()
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rig := sess.Rig()
	stops := func(k string) bool { return kind == "" || kind == k }
	g := gateway.New(sess, gateway.StaticTokens{"tok": "t-7"}, gateway.Options{})
	if err := g.RegisterTenant("t-7", gateway.TenantConfig{MaxConcurrent: 16, MaxQueued: 16}); err != nil {
		t.Fatal(err)
	}
	if err := rig.Platform.Register("quick", func(*faas.Ctx, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := rig.Platform.Register("last", func(ctx *faas.Ctx, _ any) (any, error) {
		if stops("faas") {
			stop(ctx.Proc)
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		for i := 1; i <= 11; i++ {
			job := sleepJob("sleep", time.Millisecond)
			if i == 11 && stops("gateway") {
				w := core.NewWorkflow("stop")
				if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
					stop(ctx.Proc)
					return nil
				}}); err != nil {
					t.Error(err)
				}
				job = session.WorkflowJob(w, nil)
			}
			if _, err := g.Submit(p, gateway.Credential{Token: "tok"}, job); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
		for i := 0; i < 11; i++ {
			rig.Platform.InvokeAsync(p, "quick", nil, faas.InvokeOptions{})
		}
		rig.Platform.InvokeAsync(p, "last", nil, faas.InvokeOptions{})
		p.Spawn("fanner", func(p *des.Proc) {
			p.Fan(12, "fan-", func(i int, c *des.Proc) error {
				if i == 11 && stops("fan") {
					stop(c)
				}
				return nil
			})
		})
		p.Spawn("plain", func(p *des.Proc) {
			if stops("plain") {
				stop(p)
			}
		})
	})
	return rig.Sim.Run()
}
