package pipeline

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
)

// JobConfig configures one submission of a document: the dataset it
// stages (the profile belongs to the session).
type JobConfig struct {
	// Records > 0 stages a synthetic bedMethyl dataset with that many
	// real records (correctness mode).
	Records int
	// DataBytes stages a sized payload instead when Records is 0
	// (timing mode; default the paper's 3.5 GB).
	DataBytes int64
	// Seed drives the synthetic generator (default: profile seed).
	Seed int64
	// DescribeTo, when set, receives the workflow's DAG rendering
	// before the run starts.
	DescribeTo io.Writer
}

// Job binds the document to a session submission: building resolves
// map-input builders for the built-in functions against the session's
// rig, and preparation stages the configured dataset into the
// session's object store.
func (d *Doc) Job(cfg JobConfig) session.Job {
	return session.Job{
		Name:       d.Name,
		DescribeTo: cfg.DescribeTo,
		Build: func(rig *calib.Rig) (*core.Workflow, error) {
			builders, err := defaultBuilders(d, rig.Profile)
			if err != nil {
				return nil, err
			}
			return d.Build(BuildOptions{Rig: rig, MapInputs: builders})
		},
		Prepare: func(p *des.Proc, rig *calib.Rig) error {
			c := objectstore.NewClient(rig.Store)
			for _, b := range []string{d.Input.Bucket, d.WorkBucket} {
				if err := c.CreateBucket(p, b); err != nil {
					return err
				}
			}
			var input payload.Payload
			if cfg.Records > 0 {
				seed := cfg.Seed
				if seed == 0 {
					seed = rig.Profile.Seed
				}
				recs := bed.Generate(bed.GenConfig{Records: cfg.Records, Seed: seed})
				input = payload.RealNoCopy(bed.Marshal(recs))
			} else {
				size := cfg.DataBytes
				if size <= 0 {
					size = 3500e6
				}
				// The session's store is long-lived: when an earlier
				// submission already staged this sized dataset, don't
				// pay the upload again.
				if head, err := c.Head(p, d.Input.Bucket, d.Input.Key); err == nil && head.Size == size {
					return nil
				}
				input = payload.Sized(size)
			}
			return c.Put(p, d.Input.Bucket, d.Input.Key, input)
		},
	}
}

// Run executes the document under profile and cfg and returns the run
// report. It is a one-shot session: open, submit once, close. Multi-job
// callers that want warm resources and planner history to carry across
// documents should hold a session.Session open themselves.
func Run(d *Doc, profile calib.Profile, cfg JobConfig) (*core.RunReport, error) {
	if d == nil {
		return nil, errors.New("pipeline: nil document")
	}
	sess, err := session.Open(profile, session.Options{})
	if err != nil {
		return nil, err
	}
	rep, runErr := sess.Submit(d.Job(cfg))
	if _, err := sess.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return rep, runErr
}

// codecExt is the extension of each built-in codec's output parts.
var codecExt = map[string]string{genomics.EncodeFn: ".mcz", genomics.DecodeFn: ".bed"}

// defaultBuilders derives a map-input builder for every map stage whose
// function Run knows how to feed (the built-in METHCOMP codecs).
// Outputs land under "<stage name>/part-NNNN" in the work bucket.
func defaultBuilders(d *Doc, profile calib.Profile) (map[string]MapInputBuilder, error) {
	builders := make(map[string]MapInputBuilder)
	for _, s := range d.Stages {
		if s.Type != "map" {
			continue
		}
		ext, ok := codecExt[s.Function]
		if !ok {
			return nil, fmt.Errorf(
				"pipeline: no built-in input builder for function %q (stage %q); use Doc.Build with explicit MapInputs",
				s.Function, s.Name)
		}
		// The stage name is the output directory, taken literally.
		out := strings.ReplaceAll(s.Name, "%", "%%") + "/part-%04d" + ext
		builders[s.Name] = genomics.Inputs(d.WorkBucket, d.WorkBucket, out, profile.EncodeBps, profile.EncodeRatio)
	}
	return builders, nil
}
