// Quickstart: spin up the simulated cloud, register a function, fan it
// out over objects in the store, and read the bill — the minimal tour
// of the faaspipe public surface.
package main

import (
	"fmt"
	"os"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A rig is a fully wired simulated cloud: object store, FaaS
	// platform, VM provisioner, workflow executor.
	rig, err := calib.NewRig(calib.Local())
	if err != nil {
		return err
	}

	// Functions see only their invocation context: a process handle, a
	// store client, and their memory grant. There is no
	// function-to-function networking — data moves through the store.
	err = rig.Platform.Register("wordlen", func(ctx *faas.Ctx, input any) (any, error) {
		key, _ := input.(string)
		pl, err := ctx.Store.Get(ctx.Proc, "texts", key)
		if err != nil {
			return nil, err
		}
		raw, _ := pl.Bytes()
		return fmt.Sprintf("%s has %d bytes", key, len(raw)), nil
	})
	if err != nil {
		return err
	}

	var lines []string
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		if err := c.CreateBucket(p, "texts"); err != nil {
			return
		}
		inputs := make([]any, 0, 3)
		for i, text := range []string{"hello serverless", "object storage wins", "faas pipelines"} {
			key := fmt.Sprintf("doc-%d", i)
			if err := c.Put(p, "texts", key, payload.Real([]byte(text))); err != nil {
				return
			}
			inputs = append(inputs, key)
		}
		outs, err := rig.Platform.MapSync(p, "wordlen", inputs, faas.InvokeOptions{})
		if err != nil {
			return
		}
		for _, o := range outs {
			lines = append(lines, fmt.Sprint(o))
		}
	})
	if err := rig.Run(); err != nil {
		return err
	}

	for _, l := range lines {
		fmt.Println(l)
	}
	m := rig.Platform.Meter()
	fmt.Printf("\n%d invocations (%d cold), %.2f GB-s, $%.8f\n",
		m.Invocations, m.ColdStarts, m.GBSeconds,
		rig.Profile.Prices.FunctionsCost(m))
	fmt.Printf("virtual wall clock: %v\n", rig.Sim.Now())
	return nil
}
