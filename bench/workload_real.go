package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/methcomp"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// realBytes runs the same pipeline code as paper-sweep but on real
// payloads: parse, key packing, radix sort, run building, the k-way
// merge and the METHCOMP encoder are nearly all of the host time and
// the kernel fires only a few thousand events. It is the workload on
// which a gain for sized mode must show no change, and the reverse.
type realBytes struct {
	profile   calib.Profile
	exchanges []exchange
	raw       []byte // the unsorted bedMethyl input, TSV
	want      []byte // the oracle: bed.Marshal(bed.Sort(input))
	wantHash  [sha256.Size]byte
}

const (
	realRecords       = 500000
	canonicalDataSeed = 7
)

func (w *realBytes) name() string { return "real-bytes" }

func (w *realBytes) prepare(seed int64, short bool) error {
	w.profile = calib.Local()
	w.profile.Seed = seedFor(seed, streamProfile, w.profile.Seed)
	w.exchanges = []exchange{objectStorage, vmStaged, cacheWarm}
	n := realRecords
	if short {
		n = 50000
	}
	recs := bed.Generate(bed.GenConfig{Records: n, Seed: seedFor(seed, streamData, canonicalDataSeed), Sorted: false})
	w.raw = bed.Marshal(recs)
	bed.Sort(recs)
	w.want = bed.Marshal(recs)
	w.wantHash = sha256.Sum256(w.want)
	return nil
}

func (w *realBytes) rep(tr *tracer, clk *hostClock) (*outcome, error) {
	out := newOutcome()
	var (
		totalS, totalUSD float64
		fastest, slowest = math.Inf(1), 0.0
		runs             []*pipelineResult
	)
	for _, x := range w.exchanges {
		spec := pipelineSpec{
			label:    "pipeline/" + x.String(),
			profile:  w.profile,
			exchange: x,
			workers:  paperWorkers,
			input:    payload.RealNoCopy(w.raw),
		}
		res, err := runUnit(spec, tr, clk, out)
		if err != nil {
			return nil, err
		}
		if !res.ok() {
			continue
		}
		s := res.report.Latency().Seconds()
		totalS += s
		totalUSD += res.usd()
		fastest = math.Min(fastest, s)
		slowest = math.Max(slowest, s)
		runs = append(runs, res)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("real-bytes: every pipeline failed")
	}
	out.sim["virtual_s"] = totalS
	out.sim["usd"] = totalUSD
	out.sim["fast_virtual_s"] = fastest
	out.sim["tail_virtual_s"] = slowest
	out.sim["slowdown_max"] = slowest / fastest
	out.counters["core.stage.sort.virtual_s"] = stageSeconds(runs[0], "sort")
	out.counters["core.stage.encode.virtual_s"] = stageSeconds(runs[0], "encode")
	out.verify = func(full bool) []string {
		var bad []string
		for _, r := range runs {
			if err := w.verifyOutputs(r, full); err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", r.spec.label, err))
			}
		}
		return bad
	}
	return out, nil
}

// verifyOutputs reads a finished run's parts back out of its store.
// The sorted parts must concatenate to the oracle (by hash on ordinary
// reps, byte for byte on full ones); on full reps the compressed parts
// must also decompress back to it.
func (w *realBytes) verifyOutputs(r *pipelineResult, full bool) error {
	rig := r.sess.Rig()
	var sorted, decoded bytes.Buffer
	var readErr error
	rig.Sim.Spawn("verify", func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		readErr = readParts(p, c, "sorted/", func(raw []byte) error {
			sorted.Write(raw)
			return nil
		})
		if readErr != nil || !full {
			return
		}
		readErr = readParts(p, c, "compressed/", func(raw []byte) error {
			recs, err := methcomp.Decompress(raw)
			if err != nil {
				return err
			}
			decoded.Write(bed.Marshal(recs))
			return nil
		})
	})
	if err := rig.Sim.Run(); err != nil {
		return err
	}
	if readErr != nil {
		return readErr
	}
	if sha256.Sum256(sorted.Bytes()) != w.wantHash {
		return fmt.Errorf("sorted parts (%d bytes) do not hash to the oracle sort (%d bytes)", sorted.Len(), len(w.want))
	}
	if !full {
		return nil
	}
	if !bytes.Equal(sorted.Bytes(), w.want) {
		return fmt.Errorf("sorted parts differ from bed.Marshal(bed.Sort(input))")
	}
	if !bytes.Equal(decoded.Bytes(), w.want) {
		return fmt.Errorf("compressed parts do not decompress to the sorted input (%d vs %d bytes)", decoded.Len(), len(w.want))
	}
	return nil
}

// readParts feeds every object under work/<prefix>, in key order, to fn.
func readParts(p *des.Proc, c *objectstore.Client, prefix string, fn func(raw []byte) error) error {
	keys, err := c.ListAll(p, "work", prefix)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		return fmt.Errorf("no objects under work/%s", prefix)
	}
	for _, k := range keys {
		pl, err := c.Get(p, "work", k)
		if err != nil {
			return err
		}
		raw, real := pl.Bytes()
		if !real {
			return fmt.Errorf("work/%s is not a real payload", k)
		}
		if err := fn(raw); err != nil {
			return fmt.Errorf("work/%s: %w", k, err)
		}
	}
	return nil
}
