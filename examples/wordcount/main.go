// Wordcount: the classic serverless analytics job on the simulated
// cloud — chunked text in object storage, one counting function per
// chunk, driver-side merge. Demonstrates the platform's map fan-out
// and GB-second metering on a non-genomics workload.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

const chunks = 8

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wordcount:", err)
		os.Exit(1)
	}
}

// corpus produces deterministic pseudo-text with a Zipf-ish skew.
func corpus(seed int64, words int) string {
	vocab := []string{
		"serverless", "function", "storage", "object", "shuffle", "sort",
		"vm", "latency", "cost", "pipeline", "bandwidth", "request",
		"genomics", "methylation", "cloud", "worker",
	}
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < words; i++ {
		// skew toward early vocabulary entries
		idx := rng.Intn(len(vocab) * (rng.Intn(3) + 1) / 3)
		if idx >= len(vocab) {
			idx = len(vocab) - 1
		}
		b.WriteString(vocab[idx])
		b.WriteByte(' ')
	}
	return b.String()
}

func run() error {
	rig, err := calib.NewRig(calib.Local())
	if err != nil {
		return err
	}
	err = rig.Platform.Register("count", func(ctx *faas.Ctx, input any) (any, error) {
		key, _ := input.(string)
		pl, err := ctx.Store.Get(ctx.Proc, "corpus", key)
		if err != nil {
			return nil, err
		}
		raw, _ := pl.Bytes()
		ctx.ComputeBytes(int64(len(raw)), 200e6) // modeled scan rate
		counts := make(map[string]int)
		for _, w := range strings.Fields(string(raw)) {
			counts[w]++
		}
		return counts, nil
	})
	if err != nil {
		return err
	}

	total := make(map[string]int)
	var runErr error
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		if runErr = c.CreateBucket(p, "corpus"); runErr != nil {
			return
		}
		inputs := make([]any, chunks)
		for i := 0; i < chunks; i++ {
			key := fmt.Sprintf("chunk-%02d", i)
			text := corpus(int64(i), 5000)
			if runErr = c.Put(p, "corpus", key, payload.Real([]byte(text))); runErr != nil {
				return
			}
			inputs[i] = key
		}
		outs, err := rig.Platform.MapSync(p, "count", inputs, faas.InvokeOptions{})
		if err != nil {
			runErr = err
			return
		}
		for _, o := range outs {
			counts, ok := o.(map[string]int)
			if !ok {
				runErr = fmt.Errorf("unexpected output %T", o)
				return
			}
			for w, n := range counts {
				total[w] += n
			}
		}
	})
	if err := rig.Run(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}

	type wc struct {
		word string
		n    int
	}
	ranked := make([]wc, 0, len(total))
	grand := 0
	for w, n := range total {
		ranked = append(ranked, wc{w, n})
		grand += n
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].word < ranked[j].word
	})
	fmt.Printf("%d words across %d chunks; top 10:\n", grand, chunks)
	for i := 0; i < 10 && i < len(ranked); i++ {
		fmt.Printf("  %-12s %6d\n", ranked[i].word, ranked[i].n)
	}
	m := rig.Platform.Meter()
	fmt.Printf("\n%d invocations, %.2f GB-s, $%.8f, virtual time %v\n",
		m.Invocations, m.GBSeconds, rig.Profile.Prices.FunctionsCost(m), rig.Sim.Now())
	return nil
}
