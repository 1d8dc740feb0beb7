// Command faasbench regenerates the paper's table, figure, and
// in-text claims on the simulated cloud.
//
// Usage:
//
//	faasbench -experiment table1 [-data 3.5] [-workers 8] [-trace]
//	faasbench -experiment threeway [-data 3.5] [-workers 8]
//	faasbench -experiment workersweep [-data 3.5]
//	faasbench -experiment sizesweep
//	faasbench -experiment compression
//	faasbench -experiment throttle
//	faasbench -experiment faults [-data 3.5] [-workers 8]
//	faasbench -experiment hierarchy [-data 3.5]
//	faasbench -experiment memsweep [-data 3.5] [-workers 8]
//	faasbench -experiment costs [-data 3.5] [-workers 8]
//	faasbench -experiment planner
//	faasbench -experiment autoplan [-data 3.5]
//	faasbench -experiment multijob [-data 3.5] [-jobs 3]
//	faasbench -experiment gateway [-tenants 100] [-submissions 10000]
//	faasbench -experiment gatewayscale [-tenants 10000] [-submissions 100000]
//	faasbench -experiment chaos [-data 3.5] [-workers 8]
//	faasbench -experiment zonechaos [-data 3.5] [-workers 8] [-seed 7]
//	faasbench -experiment all
//	faasbench -auto [-data 3.5]
//
// Any experiment can be profiled without editing code:
//
//	faasbench -experiment gatewayscale -cpuprofile cpu.out -memprofile mem.out
//
// writes pprof profiles covering the experiment run — the kernel and
// gateway hot paths dominate exactly as they do in production use, so
// `go tool pprof` on the output is the fastest way to find the next
// simulator bottleneck.
//
// The -auto flag engages the cost-based strategy planner: it prints
// the candidate decision table (strategy/config -> predicted time and
// cost -> chosen) and adds the auto-planned row to table1.
//
// The multijob experiment exercises the session runtime: N submissions
// sharing one warm cache cluster against the same N jobs in
// independent sessions, with standing-cost attribution.
//
// The gateway experiment pushes an open-loop multi-tenant mix through
// the admission gateway (auth, rate limits, weighted fair-share) on
// one shared session, including a hammer-free control run for the p99
// isolation comparison.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/experiments"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is main without the process: it parses args, runs the experiment
// writing its tables to stdout, and returns the exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faasbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "table1",
			"one of: table1, threeway, workersweep, sizesweep, compression, throttle, faults, hierarchy, memsweep, costs, planner, autoplan, multijob, gateway, gatewayscale, chaos, zonechaos, all")
		dataGB      = fs.Float64("data", 3.5, "dataset size in GB")
		workers     = fs.Int("workers", 8, "parallelism degree")
		seed        = fs.Int64("seed", 7, "arrival seed for the zonechaos Poisson soaks")
		jobs        = fs.Int("jobs", 3, "submission count for the multijob experiment")
		tenants     = fs.Int("tenants", 0, "tenant count for the gateway experiments (0: per-experiment default)")
		submissions = fs.Int("submissions", 0, "open-loop submission count for the gateway experiments (0: per-experiment default)")
		trace       = fs.Bool("trace", false, "print per-stage timelines (table1)")
		auto        = fs.Bool("auto", false,
			"engage the auto-planner: print its decision table and add the auto-planned row to table1")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile covering the experiment run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	)
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
	err := run(stdout, *experiment, *dataGB, *workers, *jobs, *tenants, *submissions, *seed, *trace, *auto)
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

func run(w io.Writer, experiment string, dataGB float64, workers, jobs, tenants, submissions int, seed int64, trace, auto bool) error {
	profile := calib.Paper()
	dataBytes := int64(dataGB * 1e9)

	decide := func() error {
		dec, err := experiments.Decide(profile, dataBytes, autoplan.Objective{})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, dec)
		return nil
	}
	autoplanFn := func() error {
		if err := decide(); err != nil {
			return err
		}
		res, err := experiments.Table1Auto(profile, dataBytes, workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		if trace {
			fmt.Fprintln(w, res.StageTrace())
		}
		return nil
	}
	table1 := func() error {
		if auto {
			// `faasbench -auto`: the decision table plus the measured
			// comparison it predicts (trace still honored).
			return autoplanFn()
		}
		res, err := experiments.Table1(profile, dataBytes, workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		if trace {
			fmt.Fprintln(w, res.StageTrace())
		}
		return nil
	}
	threeway := func() error {
		res, err := experiments.ThreeWay(profile, dataBytes, workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	workersweep := func() error {
		res, err := experiments.WorkerSweep(profile, dataBytes,
			[]int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	sizesweep := func() error {
		res, err := experiments.SizeSweep(profile,
			[]int64{500e6, 1000e6, 2000e6, 3500e6, 8000e6, 16000e6}, workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	compression := func() error {
		res, err := experiments.Compression([]int{10000, 100000, 1000000}, 42)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	throttle := func() error {
		res, err := experiments.StoreThrottle(profile, []int{1, 4, 16, 64, 256}, 200)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	faults := func() error {
		res, err := experiments.FaultTolerance(profile, dataBytes, workers,
			[]float64{0, 0.02, 0.05, 0.10})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	hierarchy := func() error {
		res, err := experiments.HierarchySweep(profile, dataBytes,
			[]int{8, 16, 32, 64, 128, 192})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	memsweep := func() error {
		res, err := experiments.MemorySweep(profile, dataBytes, workers,
			[]int{512, 1024, 2048, 3072, 4096})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	planner := func() error {
		res, err := experiments.PlannerRegret(profile,
			[]int64{500e6, 1000e6, 2000e6, 3500e6, 8000e6}, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	costs := func() error {
		res, err := experiments.CostBreakdown(profile, dataBytes, workers,
			[]experiments.StrategyKind{
				experiments.PurelyServerless, experiments.VMSupported,
				experiments.CacheSupported, experiments.CacheSupportedWarm,
			})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	multijob := func() error {
		res, err := experiments.MultiJob(profile, dataBytes, jobs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	gatewayFn := func() error {
		res, err := experiments.Gateway(profile, tenants, submissions)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	gatewayScaleFn := func() error {
		res, err := experiments.GatewayScale(profile, tenants, submissions)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	}
	chaosFn := func() error {
		res, err := experiments.ChaosMatrix(profile, dataBytes, workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		flip, err := experiments.SpotDecisionFlip(profile, dataBytes, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, flip)
		return nil
	}
	zoneChaosFn := func() error {
		res, err := experiments.ZoneChaos(profile, dataBytes, workers, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		flip, err := experiments.ZonePlacementFlip(profile, dataBytes, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, flip)
		return nil
	}

	switch experiment {
	case "table1":
		return table1()
	case "threeway":
		return threeway()
	case "workersweep":
		return workersweep()
	case "sizesweep":
		return sizesweep()
	case "compression":
		return compression()
	case "throttle":
		return throttle()
	case "faults":
		return faults()
	case "hierarchy":
		return hierarchy()
	case "memsweep":
		return memsweep()
	case "costs":
		return costs()
	case "planner":
		return planner()
	case "autoplan":
		return autoplanFn()
	case "multijob":
		return multijob()
	case "gateway":
		return gatewayFn()
	case "gatewayscale":
		return gatewayScaleFn()
	case "chaos":
		return chaosFn()
	case "zonechaos":
		return zoneChaosFn()
	case "all":
		// The trailing autoplan step is the decision table only: table1
		// already ran the measured rows (with -auto it runs the full
		// autoplan experiment, decision table included), so re-running
		// Table1Auto here would re-simulate the most expensive part of
		// the sweep.
		steps := []func() error{table1, threeway, workersweep, sizesweep, compression, throttle, faults, hierarchy, memsweep, costs, planner, multijob, gatewayFn, gatewayScaleFn, chaosFn, zoneChaosFn}
		if !auto {
			steps = append(steps, decide)
		}
		for _, fn := range steps {
			if err := fn(); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}
