// Genomics: the paper's METHCOMP pipeline end to end on real bytes at
// small scale — both data-exchange strategies, with the live progress
// tracker, plus verification that the compressed parts decode back to
// the sorted dataset.
package main

import (
	"fmt"
	"os"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/methcomp"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/progress"
)

const (
	records = 20000
	workers = 4
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "genomics:", err)
		os.Exit(1)
	}
}

func run() error {
	recs := bed.Generate(bed.GenConfig{Records: records, Seed: 7, Sorted: false})
	fmt.Printf("synthetic WGBS sample: %d records, %d bytes raw\n\n",
		len(recs), len(bed.Marshal(recs)))

	for _, mode := range []string{"object-storage", "vm"} {
		fmt.Printf("=== strategy: %s ===\n", mode)
		if err := runOnce(recs, mode); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runOnce(recs []bed.Record, mode string) error {
	rig, err := calib.NewRig(calib.Local())
	if err != nil {
		return err
	}
	if err := genomics.RegisterFunctions(rig.Platform); err != nil {
		return err
	}
	rig.Exec.AddListener(progress.NewTracker(os.Stdout))

	var strategy core.ExchangeStrategy = core.ObjectStorageExchange{}
	if mode == "vm" {
		strategy = rig.VMStrategy()
	}
	// The roundtrip pipeline appends decode and verify stages to the
	// paper's sort -> encode DAG, so recoverability is checked by the
	// workflow itself.
	w, err := genomics.BuildRoundtripPipeline(genomics.PipelineConfig{
		InputBucket: "data", InputKey: "sample.bed",
		WorkBucket:  "work",
		Strategy:    strategy,
		Sort:        rig.SortParams("data", "sample.bed", "work", "sorted/", workers),
		EncodeBps:   rig.Profile.EncodeBps,
		EncodeRatio: rig.Profile.EncodeRatio,
	})
	if err != nil {
		return err
	}

	var verifyErr error
	rig.Sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		for _, b := range []string{"data", "work"} {
			if err := c.CreateBucket(p, b); err != nil {
				verifyErr = err
				return
			}
		}
		if err := c.Put(p, "data", "sample.bed",
			payload.RealNoCopy(bed.Marshal(recs))); err != nil {
			verifyErr = err
			return
		}
		if _, err := rig.Exec.Run(p, w); err != nil {
			verifyErr = err
			return
		}
		verifyErr = verify(p, c, recs)
	})
	if err := rig.Run(); err != nil {
		return err
	}
	return verifyErr
}

// verify decodes the compressed parts and checks they reconstruct the
// sorted input exactly.
func verify(p *des.Proc, c *objectstore.Client, input []bed.Record) error {
	keys, err := c.ListAll(p, "work", "compressed/")
	if err != nil {
		return err
	}
	var all []bed.Record
	var compressedBytes int64
	for _, k := range keys {
		pl, err := c.Get(p, "work", k)
		if err != nil {
			return err
		}
		raw, _ := pl.Bytes()
		compressedBytes += int64(len(raw))
		recs, err := methcomp.Decompress(raw)
		if err != nil {
			return fmt.Errorf("decode %s: %w", k, err)
		}
		all = append(all, recs...)
	}
	want := make([]bed.Record, len(input))
	copy(want, input)
	bed.Sort(want)
	if len(all) != len(want) {
		return fmt.Errorf("verification: %d records decoded, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i] != want[i] {
			return fmt.Errorf("verification: record %d mismatch", i)
		}
	}
	raw := int64(len(bed.Marshal(want)))
	fmt.Printf("verified: %d parts decode to the sorted dataset (%.1fx compression)\n",
		len(keys), float64(raw)/float64(compressedBytes))
	return nil
}
