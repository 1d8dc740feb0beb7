// Command pipelinerun executes a declarative JSON workflow (the
// paper's §2.4 interface) on the simulated cloud, with a live progress
// tracker and a final cost report. With -jobs N the document is
// submitted N times to one session: the simulated cloud, the
// auto-planner's measured history, and any warm cache cluster persist
// across submissions, and the closing report attributes standing cost.
//
// Usage:
//
//	pipelinerun -pipeline workflow.json [-profile paper|local]
//	            [-records N | -data GB] [-jobs N] [-warm-cache-nodes N]
//	            [-json] [-verbose] [-seed N]
//
// With -records the pipeline moves a real synthetic bedMethyl dataset
// through the real codec; otherwise a sized payload of -data GB flows
// through the same code paths in timing-only mode.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/pipeline"
	"github.com/faaspipe/faaspipe/internal/progress"
	"github.com/faaspipe/faaspipe/internal/session"
)

type options struct {
	path      string
	profile   string
	records   int
	dataGB    float64
	jobs      int
	warmNodes int
	jsonOut   bool
	verbose   bool
	seed      int64
}

func main() {
	var opts options
	flag.StringVar(&opts.path, "pipeline", "", "path to the JSON workflow document (required)")
	flag.StringVar(&opts.profile, "profile", "paper", "calibration profile: paper or local")
	flag.IntVar(&opts.records, "records", 0, "stage a real synthetic dataset with N records")
	flag.Float64Var(&opts.dataGB, "data", 3.5, "sized dataset in GB when -records is 0")
	flag.IntVar(&opts.jobs, "jobs", 1, "submit the document N times through one session")
	flag.IntVar(&opts.warmNodes, "warm-cache-nodes", 0,
		"provision a session-owned standing cache cluster of N nodes")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit JSONL events instead of text progress")
	flag.BoolVar(&opts.verbose, "verbose", false, "itemize each stage's cost as it finishes")
	flag.Int64Var(&opts.seed, "seed", 0, "synthetic dataset seed (0: profile seed)")
	flag.Parse()
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "pipelinerun:", err)
		os.Exit(1)
	}
}

func run(opts options) error {
	if opts.path == "" {
		return fmt.Errorf("-pipeline is required")
	}
	if opts.jobs < 1 {
		return fmt.Errorf("-jobs must be >= 1, got %d", opts.jobs)
	}
	doc, err := pipeline.LoadFile(opts.path)
	if err != nil {
		return err
	}

	var prof calib.Profile
	switch opts.profile {
	case "paper":
		prof = calib.Paper()
	case "local":
		prof = calib.Local()
	default:
		return fmt.Errorf("unknown profile %q (want paper or local)", opts.profile)
	}

	var listeners []core.Listener
	var jsonTracker *progress.JSONTracker
	if opts.jsonOut {
		jsonTracker = progress.NewJSONTracker(os.Stdout)
		listeners = append(listeners, jsonTracker)
	} else {
		tr := progress.NewTracker(os.Stdout)
		tr.Verbose = opts.verbose
		listeners = append(listeners, tr)
	}

	sess, err := session.Open(prof, session.Options{
		Listeners:      listeners,
		WarmCacheNodes: opts.warmNodes,
	})
	if err != nil {
		return err
	}
	for i := 0; i < opts.jobs; i++ {
		cfg := pipeline.JobConfig{
			Records:   opts.records,
			DataBytes: int64(opts.dataGB * 1e9),
			Seed:      opts.seed,
		}
		if !opts.jsonOut && i == 0 {
			cfg.DescribeTo = os.Stdout
		}
		rep, err := sess.Submit(doc.Job(cfg))
		if err != nil {
			return err
		}
		if !opts.jsonOut {
			fmt.Printf("\ncost breakdown:\n%s", rep.Cost().String())
			if rep.StandingUSD > 0 {
				fmt.Printf("standing-resource share: $%.4f\n", rep.StandingUSD)
			}
		}
	}
	report, err := sess.Close()
	if err != nil {
		return err
	}
	if jsonTracker != nil {
		return jsonTracker.Err()
	}
	if opts.jobs > 1 || opts.warmNodes > 0 {
		fmt.Printf("\n%s", report)
	}
	return nil
}
