// Command faasbench regenerates the paper's table, figure, and in-text
// claims on the simulated cloud, one experiment per name; `faasbench -h`
// lists the names with the flags each honours. `-experiment all` runs
// every one in table order.
//
// Any experiment can be profiled without editing code:
//
//	faasbench -experiment gatewayscale -cpuprofile cpu.out -memprofile mem.out
//
// writes pprof profiles covering the experiment run — the kernel and
// gateway hot paths dominate exactly as they do in production use, so
// `go tool pprof` on the output is the fastest way to find the next
// simulator bottleneck.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/experiments"
)

// params are the knobs the command line sets; each experiment reads the
// ones its usage string names.
type params struct {
	profile                             calib.Profile
	dataBytes                           int64
	workers, jobs, tenants, submissions int
	seed                                int64
	trace, auto                         bool
}

// experiment is one row of the table everything else derives from:
// dispatch, the order of `all`, the -experiment help and the usage text.
type experiment struct {
	name  string
	flags string
	run   func(w io.Writer, p params) error
}

// show adapts a function returning one printable result.
func show(f func(p params) (fmt.Stringer, error)) func(io.Writer, params) error {
	return func(w io.Writer, p params) error {
		res, err := f(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
}

// then runs two steps in order.
func then(a, b func(io.Writer, params) error) func(io.Writer, params) error {
	return func(w io.Writer, p params) error {
		if err := a(w, p); err != nil {
			return err
		}
		return b(w, p)
	}
}

// decide prints the planner's candidate table for the workload.
var decide = show(func(p params) (fmt.Stringer, error) {
	return experiments.Decide(p.profile, p.dataBytes, autoplan.Objective{})
})

// table1 prints Table 1; with -auto it adds the auto-planned row and is
// preceded by the decision table that row was chosen from.
func table1(w io.Writer, p params) error {
	measure := experiments.Table1
	if p.auto {
		if err := decide(w, p); err != nil {
			return err
		}
		measure = experiments.Table1Auto
	}
	res, err := measure(p.profile, p.dataBytes, p.workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res)
	if p.trace {
		fmt.Fprintln(w, res.StageTrace())
	}
	return nil
}

// autoplanName is the one entry `all` treats specially (see runAll).
const autoplanName = "autoplan"

var table = []experiment{
	{"table1", "[-data 3.5] [-workers 8] [-trace] [-auto]", table1},
	{"threeway", "[-data 3.5] [-workers 8]", show(func(p params) (fmt.Stringer, error) {
		return experiments.ThreeWay(p.profile, p.dataBytes, p.workers)
	})},
	{"workersweep", "[-data 3.5]", show(func(p params) (fmt.Stringer, error) {
		return experiments.WorkerSweep(p.profile, p.dataBytes, []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128})
	})},
	{"sizesweep", "[-workers 8]", show(func(p params) (fmt.Stringer, error) {
		return experiments.SizeSweep(p.profile, []int64{500e6, 1000e6, 2000e6, 3500e6, 8000e6, 16000e6}, p.workers)
	})},
	{"compression", "", show(func(params) (fmt.Stringer, error) {
		return experiments.Compression([]int{10000, 100000, 1000000}, 42)
	})},
	{"throttle", "", show(func(p params) (fmt.Stringer, error) {
		return experiments.StoreThrottle(p.profile, []int{1, 4, 16, 64, 256}, 200)
	})},
	{"faults", "[-data 3.5] [-workers 8]", show(func(p params) (fmt.Stringer, error) {
		return experiments.FaultTolerance(p.profile, p.dataBytes, p.workers, []float64{0, 0.02, 0.05, 0.10})
	})},
	{"hierarchy", "[-data 3.5]", show(func(p params) (fmt.Stringer, error) {
		return experiments.HierarchySweep(p.profile, p.dataBytes, []int{8, 16, 32, 64, 128, 192})
	})},
	{"memsweep", "[-data 3.5] [-workers 8]", show(func(p params) (fmt.Stringer, error) {
		return experiments.MemorySweep(p.profile, p.dataBytes, p.workers, []int{512, 1024, 2048, 3072, 4096})
	})},
	{"costs", "[-data 3.5] [-workers 8]", show(func(p params) (fmt.Stringer, error) {
		return experiments.CostBreakdown(p.profile, p.dataBytes, p.workers, []experiments.StrategyKind{
			experiments.PurelyServerless, experiments.VMSupported,
			experiments.CacheSupported, experiments.CacheSupportedWarm,
		})
	})},
	{"planner", "", show(func(p params) (fmt.Stringer, error) {
		return experiments.PlannerRegret(p.profile, []int64{500e6, 1000e6, 2000e6, 3500e6, 8000e6}, nil)
	})},
	{"multijob", "[-data 3.5] [-jobs 3]", show(func(p params) (fmt.Stringer, error) {
		return experiments.MultiJob(p.profile, p.dataBytes, p.jobs)
	})},
	{"gateway", "[-tenants 100] [-submissions 10000]", show(func(p params) (fmt.Stringer, error) {
		return experiments.Gateway(p.profile, p.tenants, p.submissions)
	})},
	{"gatewayscale", "[-tenants 10000] [-submissions 100000]", show(func(p params) (fmt.Stringer, error) {
		return experiments.GatewayScale(p.profile, p.tenants, p.submissions)
	})},
	{"chaos", "[-data 3.5] [-workers 8]", then(
		show(func(p params) (fmt.Stringer, error) {
			return experiments.ChaosMatrix(p.profile, p.dataBytes, p.workers)
		}),
		show(func(p params) (fmt.Stringer, error) {
			return experiments.SpotDecisionFlip(p.profile, p.dataBytes, nil)
		}))},
	{"zonechaos", "[-data 3.5] [-workers 8] [-seed 7]", then(
		show(func(p params) (fmt.Stringer, error) {
			return experiments.ZoneChaos(p.profile, p.dataBytes, p.workers, p.seed)
		}),
		show(func(p params) (fmt.Stringer, error) {
			return experiments.ZonePlacementFlip(p.profile, p.dataBytes, nil)
		}))},
	// `table1 -auto` under its own name: the decision table plus the
	// measured comparison it predicts.
	{autoplanName, "[-data 3.5] [-workers 8] [-trace]", func(w io.Writer, p params) error {
		p.auto = true
		return table1(w, p)
	}},
}

// runAll runs the table in order, a blank line after each step. The
// autoplan step is the decision table only: table1 already ran the
// measured rows (with -auto it ran the whole autoplan experiment,
// decision table included), so re-running them would re-simulate the
// most expensive part of the sweep.
func runAll(w io.Writer, p params) error {
	for _, e := range table {
		run := e.run
		if e.name == autoplanName {
			if p.auto {
				continue
			}
			run = decide
		}
		if err := run(w, p); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func run(w io.Writer, name string, p params) error {
	if name == "all" {
		return runAll(w, p)
	}
	for _, e := range table {
		if e.name == name {
			return e.run(w, p)
		}
	}
	return fmt.Errorf("unknown experiment %q", name)
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is main without the process: it parses args, runs the experiment
// writing its tables to stdout, and returns the exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("faasbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := params{profile: calib.Paper()}
	var dataGB float64
	name := fs.String("experiment", "table1", "one of: "+strings.Join(names, ", ")+", all")
	fs.Float64Var(&dataGB, "data", 3.5, "dataset size in GB")
	fs.IntVar(&p.workers, "workers", 8, "parallelism degree")
	fs.Int64Var(&p.seed, "seed", 7, "arrival seed for the zonechaos Poisson soaks")
	fs.IntVar(&p.jobs, "jobs", 3, "submission count for the multijob experiment")
	fs.IntVar(&p.tenants, "tenants", 0, "tenant count for the gateway experiments (0: per-experiment default)")
	fs.IntVar(&p.submissions, "submissions", 0, "open-loop submission count for the gateway experiments (0: per-experiment default)")
	fs.BoolVar(&p.trace, "trace", false, "print per-stage timelines (table1, autoplan)")
	fs.BoolVar(&p.auto, "auto", false, "engage the auto-planner: print its decision table and add the auto-planned row to table1")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering the experiment run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage:")
		for _, e := range table {
			fmt.Fprintf(stderr, "  faasbench -experiment %s %s\n", e.name, e.flags)
		}
		fmt.Fprintln(stderr, "  faasbench -experiment all\n\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "faasbench: cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "faasbench: cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	p.dataBytes = int64(dataGB * 1e9)
	err := run(stdout, *name, p)
	// A failed experiment's profile is often the one worth reading, so
	// the heap profile is written either way.
	if perr := writeMemProfile(*memprofile); perr != nil {
		fmt.Fprintln(stderr, "faasbench: memprofile:", perr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "faasbench:", err)
		return 1
	}
	return 0
}

// writeMemProfile dumps the current heap profile (after a GC, so live
// objects rather than allocation noise) to path; no-op for "".
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
