// Command bench is the repository's benchmark: four workloads on two
// clocks. It prints every metric by name and unit, checks the outputs
// the program produced, and exits non-zero when any check fails.
//
//	bash bench/run.sh                                   # all workloads, end-to-end metrics
//	bash bench/run.sh --workload real-bytes --seed 3    # one workload, another seed
//	bash bench/run.sh --trace 1 --out /tmp/b            # per-layer metrics, trace.jsonl
//	bash bench/run.sh --compare a/results.jsonl b/results.jsonl
//
// See README.md for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		cfg      config
		workload = flag.String("workload", "", "workload to run: paper-sweep, zone-chaos, gateway-scale or real-bytes (default: all four)")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		out      = flag.String("out", "", "directory to append results.jsonl (and, traced, trace.jsonl) to")
		compare  = flag.Bool("compare", false, "compare two results.jsonl files given as arguments and exit")
	)
	flag.Int64Var(&cfg.seed, "seed", 0, "input seed; 0 is canonical (the seeds the repository ships with) and the only one the golden numbers apply to")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure each workload for")
	flag.Parse()
	cfg.trace = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench --compare a/results.jsonl b/results.jsonl")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("compare: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads() {
			names = append(names, w.name())
		}
	}
	allCorrect := true
	var spans []*span
	for _, name := range names {
		res, err := runWorkload(name, cfg)
		if err != nil {
			// No result line: the run could not be measured at all.
			fatal("%v", err)
		}
		for _, s := range res.spans {
			s.Workload = name
		}
		spans = append(spans, res.spans...)
		printResult(res)
		if *out != "" {
			if err := appendResult(filepath.Join(*out, "results.jsonl"), res); err != nil {
				fatal("%v", err)
			}
		}
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		line, err := json.Marshal(contractLine(res))
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && res.Correct
	}
	if cfg.trace && *out != "" {
		if err := writeJSONL(filepath.Join(*out, "trace.jsonl"), spans); err != nil {
			fatal("%v", err)
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contract struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

func contractLine(res *result) contract {
	c := contract{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]contractMetric, len(res.Metrics))}
	for name, m := range res.Metrics {
		c.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return c
}

// printResult prints every metric by name and unit, in catalogue order.
func printResult(res *result) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	fmt.Printf("== %s  seed %d  %d reps  %s  GOMAXPROCS %d of %d  spin %.1f ms  commit %s\n",
		res.Workload, res.Seed, res.Reps, res.Env.GoVersion, res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.SpinMs, res.Env.Commit)
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-40s %16.6g %-7s", d.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Printf("  q1 %.6g  q3 %.6g  n %d", m.Q1, m.Q3, m.N)
		}
		fmt.Println()
	}
	fmt.Printf("%-40s %16d of %d operations\n", "failed", res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Printf("FAIL %s\n", f)
	}
}

func appendResult(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
