// Gateway: front a shared session with the multi-tenant admission
// gateway — authenticate two tenants under different schemes, watch a
// rate limit reject a burst without hurting anyone else, run jobs
// under weighted fair-share, and read a result back through a ranged
// request.
package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/gateway"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

// job occupies the session for d, then publishes data as its result.
func job(name, key string, d time.Duration, data []byte) session.Job {
	w := core.NewWorkflow(name)
	if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
		ctx.Proc.Sleep(d)
		c := objectstore.NewClient(ctx.Exec.Store)
		return c.Put(ctx.Proc, "results", key, payload.RealNoCopy(data))
	}}); err != nil {
		panic(err)
	}
	return session.WorkflowJob(w, nil)
}

func run() error {
	// One session, one simulated cloud, shared by every tenant behind
	// the gateway.
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		return err
	}

	// Two credential schemes behind one front door: an API-key table
	// for alice, stateless HMAC tokens for bob.
	hm := gateway.HMACAuth{Secret: []byte("demo-secret")}
	g := gateway.New(sess, gateway.Chain{
		gateway.StaticTokens{"alice-api-key": "alice"},
		hm,
	}, gateway.Options{MaxConcurrent: 2})

	// alice pays for weight 4; bob is on the free tier: weight 1 and a
	// 1-submission-per-second rate limit.
	if err := g.RegisterTenant("alice", gateway.TenantConfig{Weight: 4, MaxConcurrent: 2}); err != nil {
		return err
	}
	if err := g.RegisterTenant("bob", gateway.TenantConfig{Weight: 1, MaxConcurrent: 1, RatePerSec: 1, Burst: 1}); err != nil {
		return err
	}
	alice := gateway.Credential{Token: "alice-api-key"}
	bob := gateway.Credential{TenantID: "bob", MAC: hm.Tag("bob")}

	rig := sess.Rig()
	var runErr error
	rig.Sim.Spawn("tenants", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		if runErr = c.CreateBucket(p, "results"); runErr != nil {
			return
		}

		// Both tenants submit; bob's second submission inside the same
		// second trips his rate limit — rejected at the door, costing
		// alice nothing.
		key := g.ResultKey("alice", "report.bin")
		tkA, err := g.Submit(p, alice, job("alice-job", key, 2*time.Second, []byte("the quick brown genome jumped over the lazy reference")))
		if err != nil {
			runErr = err
			return
		}
		if _, err := g.Submit(p, bob, job("bob-1", g.ResultKey("bob", "a"), time.Second, []byte("bob data"))); err != nil {
			runErr = err
			return
		}
		_, err = g.Submit(p, bob, job("bob-2", g.ResultKey("bob", "b"), time.Second, []byte("more bob")))
		fmt.Printf("bob's burst: %v\n", err)

		if _, err := tkA.Wait(p); err != nil {
			runErr = err
			return
		}
		fmt.Printf("alice's job: queued %v, ran %v\n", tkA.Queued(), tkA.Finished-tkA.Started)

		// Ranged result serving: alice reads bytes [4,9) of her result
		// straight off the store; bob asking for her key is refused.
		pl, err := g.ServeResult(p, alice, key, 4, 5)
		if err != nil {
			runErr = err
			return
		}
		window, _ := pl.Bytes()
		fmt.Printf("alice's result[4:9]: %q\n", window)
		if _, err := g.ServeResult(p, bob, key, 0, -1); errors.Is(err, gateway.ErrForbidden) {
			fmt.Println("bob reading alice's result: forbidden, as it should be")
		}
		g.Drain(p)
	})
	if err := rig.Run(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}

	rep, err := g.Close()
	if err != nil {
		return err
	}
	fmt.Printf("\n%s", rep)
	return nil
}
