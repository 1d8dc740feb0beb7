package experiments

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
)

func TestThreeWayOrderingAtPaperScale(t *testing.T) {
	res, err := ThreeWay(calib.Paper(), 0, 0)
	if err != nil {
		t.Fatalf("ThreeWay: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	byKind := make(map[StrategyKind]PipelineRun, len(res.Rows))
	for _, r := range res.Rows {
		byKind[r.Kind] = r
	}
	sl := byKind[PurelyServerless]
	vm := byKind[VMSupported]
	cold := byKind[CacheSupported]
	warm := byKind[CacheSupportedWarm]

	// The cold cache pays minutes of provisioning: slowest of all. This
	// is the paper's "always-on" argument for object storage.
	if cold.Latency <= vm.Latency || cold.Latency <= sl.Latency {
		t.Errorf("cold cache %v should be slowest (vm %v, serverless %v)",
			cold.Latency, vm.Latency, sl.Latency)
	}
	// A pre-provisioned cache is the latency winner...
	if warm.Latency >= sl.Latency {
		t.Errorf("warm cache %v not faster than object storage %v",
			warm.Latency, sl.Latency)
	}
	// ...but costs more than the purely serverless pipeline even with
	// the job-window-only billing concession.
	if warm.CostUSD <= sl.CostUSD {
		t.Errorf("warm cache cost %.4f not above serverless %.4f",
			warm.CostUSD, sl.CostUSD)
	}
}

func TestThreeWayString(t *testing.T) {
	res, err := ThreeWay(calib.Local(), 50e6, 4)
	if err != nil {
		t.Fatalf("ThreeWay: %v", err)
	}
	out := res.String()
	for _, want := range []string{
		`"Purely" serverless`, "VM-supported",
		"Cache-supported", "Cache-supported (warm)",
		"sort",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestThreeWayDefaultsToPaperScale(t *testing.T) {
	res, err := ThreeWay(calib.Paper(), 0, 0)
	if err != nil {
		t.Fatalf("ThreeWay: %v", err)
	}
	if res.DataBytes != PaperDataBytes || res.Workers != PaperWorkers {
		t.Errorf("defaults = %d bytes / %d workers, want paper scale",
			res.DataBytes, res.Workers)
	}
}

func TestStrategyKindStrings(t *testing.T) {
	cases := map[StrategyKind]string{
		PurelyServerless:   `"Purely" serverless`,
		VMSupported:        "VM-supported",
		CacheSupported:     "Cache-supported",
		CacheSupportedWarm: "Cache-supported (warm)",
		StrategyKind(99):   "StrategyKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestRunPipelineCacheStrategies(t *testing.T) {
	for _, kind := range []StrategyKind{CacheSupported, CacheSupportedWarm} {
		run, err := RunPipeline(calib.Local(), kind, 50e6, 4)
		if err != nil {
			t.Fatalf("RunPipeline(%v): %v", kind, err)
		}
		if run.Latency <= 0 || run.CostUSD <= 0 {
			t.Errorf("%v: latency %v, cost %.6f; want positive", kind, run.Latency, run.CostUSD)
		}
		sr, ok := run.Report.Stage("sort")
		if !ok {
			t.Fatalf("%v: no sort stage", kind)
		}
		if sr.Cost.Cache <= 0 {
			t.Errorf("%v: sort stage Cost.Cache = %g, want > 0", kind, sr.Cost.Cache)
		}
	}
}
