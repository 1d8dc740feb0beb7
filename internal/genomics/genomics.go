// Package genomics assembles the paper's evaluation workload: the
// METHCOMP compression pipeline (sort stage + embarrassingly parallel
// encode stage) as a core.Workflow, with the platform functions the
// encode/decode stages invoke.
package genomics

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/methcomp"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// Function names registered on the platform.
const (
	EncodeFn = "methcomp/encode"
	DecodeFn = "methcomp/decode"
)

// Task is the input of one encode or decode activation.
type Task struct {
	Bucket, Key string
	OutBucket   string
	OutKey      string
	// Bps is the codec's throughput at the baseline memory grant.
	Bps float64
	// SizedRatio is the size reduction sized-mode encode applies and
	// decode undoes (see sizedRatio).
	SizedRatio float64
}

// Inputs builds the task of each part a codec stage maps over: the part
// at objKey in bucket, written to outBucket under outFormat with its
// index.
func Inputs(bucket, outBucket, outFormat string, bps, ratio float64) func(objKey string, i int) any {
	return func(objKey string, i int) any {
		return &Task{
			Bucket:     bucket,
			Key:        objKey,
			OutBucket:  outBucket,
			OutKey:     fmt.Sprintf(outFormat, i),
			Bps:        bps,
			SizedRatio: ratio,
		}
	}
}

// sizedRatio is the size reduction sized mode applies: ratio, or 20
// when it is not above 1.
func sizedRatio(ratio float64) float64 {
	if ratio <= 1 {
		return 20
	}
	return ratio
}

// RegisterFunctions adds the METHCOMP encode/decode functions to the
// platform.
func RegisterFunctions(pf *faas.Platform) error {
	if err := pf.Register(EncodeFn, codec("encode", encode)); err != nil {
		return err
	}
	return pf.Register(DecodeFn, codec("decode", decode))
}

// codec is the handler of a codec function: it fetches the task's part,
// turns it into its output with run, and writes that.
func codec(name string, run func(ctx *faas.Ctx, task *Task, pl payload.Payload) (payload.Payload, error)) faas.Handler {
	return func(ctx *faas.Ctx, input any) (any, error) {
		task, ok := input.(*Task)
		if !ok {
			return nil, fmt.Errorf("genomics: %s input %T", name, input)
		}
		pl, err := ctx.Store.Get(ctx.Proc, task.Bucket, task.Key)
		if err != nil {
			return nil, fmt.Errorf("genomics: %s fetch %s: %w", name, task.Key, err)
		}
		out, err := run(ctx, task, pl)
		if err != nil {
			return nil, err
		}
		if err := ctx.Store.Put(ctx.Proc, task.OutBucket, task.OutKey, out); err != nil {
			return nil, fmt.Errorf("genomics: %s write %s: %w", name, task.OutKey, err)
		}
		return task.OutKey, nil
	}
}

// encode compresses a part with METHCOMP, or a sized one by its ratio.
func encode(ctx *faas.Ctx, task *Task, pl payload.Payload) (payload.Payload, error) {
	ctx.ComputeBytes(pl.Size(), task.Bps)
	raw, real := pl.Bytes()
	if !real {
		return payload.Sized(int64(float64(pl.Size()) / sizedRatio(task.SizedRatio))), nil
	}
	comp, err := methcomp.CompressLines(raw)
	switch {
	case errors.Is(err, methcomp.ErrStrandDot):
		return nil, fmt.Errorf("genomics: encode %s: %w", task.Key, err)
	case err != nil:
		return nil, fmt.Errorf("genomics: encode parse %s: %w", task.Key, err)
	}
	return payload.RealNoCopy(comp), nil
}

// decode expands a part back into bedMethyl lines, or a sized one by
// its ratio.
func decode(ctx *faas.Ctx, task *Task, pl payload.Payload) (payload.Payload, error) {
	var out payload.Payload
	if raw, real := pl.Bytes(); real {
		recs, err := methcomp.Decompress(raw)
		if err != nil {
			return nil, fmt.Errorf("genomics: decode %s: %w", task.Key, err)
		}
		out = payload.RealNoCopy(bed.Marshal(recs))
	} else {
		out = payload.Sized(int64(float64(pl.Size()) * sizedRatio(task.SizedRatio)))
	}
	ctx.ComputeBytes(out.Size(), task.Bps)
	return out, nil
}

// BuildRoundtripPipeline extends the two-stage workflow with decode
// and verify stages:
//
//	sort -> encode -> decode -> verify
//
// proving end to end that what the pipeline stored is recoverable —
// the acceptance test a genomics user would run before trusting the
// compressor with real samples. In real-payload mode the verify stage
// compares the decoded records against the sorted input exactly; in
// sized mode it checks volume conservation.
func BuildRoundtripPipeline(cfg PipelineConfig) (*core.Workflow, error) {
	w, err := BuildPipeline(cfg)
	if err != nil {
		return nil, err
	}
	decode := &core.MapStage{
		StageName:       "decode",
		Function:        DecodeFn,
		InputsFromState: "encode.keys",
		BuildInput:      Inputs(cfg.WorkBucket, cfg.WorkBucket, "decoded/part-%04d.bed", cfg.EncodeBps, cfg.EncodeRatio),
	}
	if err := w.Add(decode, "encode"); err != nil {
		return nil, err
	}
	verify := &core.FuncStage{
		StageName: "verify",
		Fn: func(ctx *core.StageContext) error {
			return verifyRoundtrip(ctx, cfg)
		},
	}
	if err := w.Add(verify, "decode"); err != nil {
		return nil, err
	}
	return w, nil
}

// verifyRoundtrip checks that the decoded parts, joined, are the input
// sorted by shuffle.SortRun, byte for byte: both are lines as
// bed.AppendTSV writes them (SortRun copies a canonical line and
// re-writes any other), in stable genome order, one a record, so equal
// bytes are equal records.
func verifyRoundtrip(ctx *core.StageContext, cfg PipelineConfig) error {
	keys, err := ctx.State.Keys("decode.keys")
	if err != nil {
		return err
	}
	client := objectstore.NewClient(ctx.Exec.Store)
	decoded := make([][]byte, 0, len(keys))
	var decodedBytes int64
	real := true
	for _, k := range keys {
		pl, err := client.Get(ctx.Proc, cfg.WorkBucket, k)
		if err != nil {
			return fmt.Errorf("genomics: verify fetch %s: %w", k, err)
		}
		decodedBytes += pl.Size()
		raw, ok := pl.Bytes()
		real = real && ok
		decoded = append(decoded, raw)
	}

	inBucket, inKey := cfg.InputBucket, cfg.InputKey
	if cfg.Sort.InputBucket != "" {
		inBucket, inKey = cfg.Sort.InputBucket, cfg.Sort.InputKey
	}
	orig, err := client.Get(ctx.Proc, inBucket, inKey)
	if err != nil {
		return fmt.Errorf("genomics: verify fetch input: %w", err)
	}

	if !real {
		// Sized mode: encode divides each part's size by the ratio and
		// decode multiplies back, so integer truncation loses up to
		// ratio+1 bytes per part. Volume must be conserved within that.
		ratio := sizedRatio(cfg.EncodeRatio)
		tolerance := int64(float64(len(keys)) * (ratio + 1))
		if diff := orig.Size() - decodedBytes; diff < 0 || diff > tolerance {
			return fmt.Errorf("genomics: verify: decoded %d bytes vs input %d (tolerance %d)",
				decodedBytes, orig.Size(), tolerance)
		}
		return nil
	}
	raw, ok := orig.Bytes()
	if !ok {
		return fmt.Errorf("genomics: verify: real decoded parts but sized input")
	}
	want, err := shuffle.SortRun(raw)
	if err != nil {
		return fmt.Errorf("genomics: verify parse input: %w", err)
	}
	for i, part := range decoded {
		if !bytes.HasPrefix(want, part) {
			return fmt.Errorf("genomics: verify: decoded part %s differs from the sorted input", keys[i])
		}
		want = want[len(part):]
	}
	if len(want) > 0 {
		return fmt.Errorf("genomics: verify: decoded parts end %d bytes short of the sorted input", len(want))
	}
	return nil
}

// PipelineConfig describes one METHCOMP pipeline run.
type PipelineConfig struct {
	// InputBucket/InputKey locate the raw bedMethyl dataset.
	InputBucket, InputKey string
	// WorkBucket holds intermediates and outputs.
	WorkBucket string
	// Strategy is the sort stage's data-exchange strategy.
	Strategy core.ExchangeStrategy
	// Sort parameterizes the sort stage (output bucket/prefix are
	// filled from WorkBucket when empty).
	Sort shuffle.Spec
	// EncodeBps / EncodeRatio parameterize the encode stage.
	EncodeBps   float64
	EncodeRatio float64
}

// BuildPipeline assembles the two-stage METHCOMP workflow:
//
//	sort (strategy-dependent) -> encode (fan-out over sorted parts)
//
// matching Figure 1 of the paper.
func BuildPipeline(cfg PipelineConfig) (*core.Workflow, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("genomics: no exchange strategy")
	}
	sort := cfg.Sort
	if sort.InputBucket == "" {
		sort.InputBucket = cfg.InputBucket
		sort.InputKey = cfg.InputKey
	}
	if sort.OutputBucket == "" {
		sort.OutputBucket = cfg.WorkBucket
	}
	if sort.OutputPrefix == "" {
		sort.OutputPrefix = "sorted/"
	}

	w := core.NewWorkflow("methcomp")
	if err := w.Add(&core.SortStage{Strategy: cfg.Strategy, Params: sort}); err != nil {
		return nil, err
	}
	encode := &core.MapStage{
		StageName:       "encode",
		Function:        EncodeFn,
		InputsFromState: "sort.keys",
		BuildInput:      Inputs(sort.OutputBucket, cfg.WorkBucket, "compressed/part-%04d.mcz", cfg.EncodeBps, cfg.EncodeRatio),
	}
	if err := w.Add(encode, "sort"); err != nil {
		return nil, err
	}
	return w, nil
}
