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

// EncodeTask is the input of one encode activation.
type EncodeTask struct {
	Bucket, Key string
	OutBucket   string
	OutKey      string
	EncodeBps   float64
	SizedRatio  float64
}

// DecodeTask is the input of one decode activation.
type DecodeTask struct {
	Bucket, Key string
	OutBucket   string
	OutKey      string
	DecodeBps   float64
	SizedRatio  float64
}

// RegisterFunctions adds the METHCOMP encode/decode functions to the
// platform.
func RegisterFunctions(pf *faas.Platform) error {
	if err := pf.Register(EncodeFn, encodeHandler); err != nil {
		return err
	}
	return pf.Register(DecodeFn, decodeHandler)
}

func encodeHandler(ctx *faas.Ctx, input any) (any, error) {
	task, ok := input.(*EncodeTask)
	if !ok {
		return nil, fmt.Errorf("genomics: encode input %T", input)
	}
	pl, err := ctx.Store.Get(ctx.Proc, task.Bucket, task.Key)
	if err != nil {
		return nil, fmt.Errorf("genomics: encode fetch %s: %w", task.Key, err)
	}
	ctx.ComputeBytes(pl.Size(), task.EncodeBps)

	var out payload.Payload
	if raw, real := pl.Bytes(); real {
		comp, err := methcomp.CompressLines(raw)
		switch {
		case errors.Is(err, methcomp.ErrStrandDot):
			return nil, fmt.Errorf("genomics: encode %s: %w", task.Key, err)
		case err != nil:
			return nil, fmt.Errorf("genomics: encode parse %s: %w", task.Key, err)
		}
		out = payload.RealNoCopy(comp)
	} else {
		ratio := task.SizedRatio
		if ratio <= 1 {
			ratio = 20
		}
		out = payload.Sized(int64(float64(pl.Size()) / ratio))
	}
	if err := ctx.Store.Put(ctx.Proc, task.OutBucket, task.OutKey, out); err != nil {
		return nil, fmt.Errorf("genomics: encode write %s: %w", task.OutKey, err)
	}
	return task.OutKey, nil
}

func decodeHandler(ctx *faas.Ctx, input any) (any, error) {
	task, ok := input.(*DecodeTask)
	if !ok {
		return nil, fmt.Errorf("genomics: decode input %T", input)
	}
	pl, err := ctx.Store.Get(ctx.Proc, task.Bucket, task.Key)
	if err != nil {
		return nil, fmt.Errorf("genomics: decode fetch %s: %w", task.Key, err)
	}
	var out payload.Payload
	if raw, real := pl.Bytes(); real {
		recs, err := methcomp.Decompress(raw)
		if err != nil {
			return nil, fmt.Errorf("genomics: decode %s: %w", task.Key, err)
		}
		out = payload.RealNoCopy(bed.Marshal(recs))
	} else {
		ratio := task.SizedRatio
		if ratio <= 1 {
			ratio = 20
		}
		out = payload.Sized(int64(float64(pl.Size()) * ratio))
	}
	ctx.ComputeBytes(out.Size(), task.DecodeBps)
	if err := ctx.Store.Put(ctx.Proc, task.OutBucket, task.OutKey, out); err != nil {
		return nil, fmt.Errorf("genomics: decode write %s: %w", task.OutKey, err)
	}
	return task.OutKey, nil
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
		BuildInput: func(objKey string, i int) any {
			return &DecodeTask{
				Bucket:     cfg.WorkBucket,
				Key:        objKey,
				OutBucket:  cfg.WorkBucket,
				OutKey:     fmt.Sprintf("decoded/part-%04d.bed", i),
				DecodeBps:  cfg.EncodeBps,
				SizedRatio: cfg.EncodeRatio,
			}
		},
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
	client := objectClient(ctx)
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
		ratio := cfg.EncodeRatio
		if ratio <= 1 {
			ratio = 20
		}
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

// objectClient builds a store client for orchestrator-side stages.
func objectClient(ctx *core.StageContext) *objectstore.Client {
	return objectstore.NewClient(ctx.Exec.Store)
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
		BuildInput: func(objKey string, i int) any {
			return &EncodeTask{
				Bucket:     sort.OutputBucket,
				Key:        objKey,
				OutBucket:  cfg.WorkBucket,
				OutKey:     fmt.Sprintf("compressed/part-%04d.mcz", i),
				EncodeBps:  cfg.EncodeBps,
				SizedRatio: cfg.EncodeRatio,
			}
		},
	}
	if err := w.Add(encode, "sort"); err != nil {
		return nil, err
	}
	return w, nil
}
