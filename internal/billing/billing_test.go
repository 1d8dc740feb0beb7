package billing

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/vm"
)

func TestCacheCost(t *testing.T) {
	pb := Default()
	sim := des.New(1)
	cfg := memcache.DefaultConfig()
	cfg.ProvisionTime = 0
	cfg.NodeHourlyUSD = 0.3
	pr, err := memcache.NewProvisioner(sim, cfg)
	if err != nil {
		t.Fatalf("provisioner: %v", err)
	}
	sim.Spawn("t", func(p *des.Proc) {
		c, err := pr.Provision(p, 2)
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		p.Sleep(time.Hour)
		c.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	want := 0.3 * 2 // two nodes for one hour
	if got := pb.CacheCost(pr.Clusters()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CacheCost = %g, want %g", got, want)
	}
	if got := pb.CacheCost(nil); got != 0 {
		t.Fatalf("CacheCost(nil) = %g, want 0", got)
	}
}

func TestFunctionsCost(t *testing.T) {
	pb := Default()
	m := faas.Meter{GBSeconds: 480, Invocations: 16}
	want := 480 * 0.000017
	if got := pb.FunctionsCost(m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FunctionsCost = %g, want %g", got, want)
	}
}

func TestFunctionsCostWithInvocationPrice(t *testing.T) {
	pb := Default()
	pb.FunctionInvocation = 0.0000002
	m := faas.Meter{GBSeconds: 100, Invocations: 1000}
	want := 100*0.000017 + 1000*0.0000002
	if got := pb.FunctionsCost(m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FunctionsCost = %g, want %g", got, want)
	}
}

func TestStorageCost(t *testing.T) {
	pb := Default()
	m := objectstore.Metrics{ClassAOps: 2000, ClassBOps: 10000, DeleteOps: 500}
	want := 2000*0.005/1000 + 10000*0.0004/1000
	if got := pb.StorageCost(m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("StorageCost = %g, want %g (deletes free)", got, want)
	}
}

func TestVMCost(t *testing.T) {
	sim := des.New(1)
	pr := vm.NewProvisioner(sim)
	var inst *vm.Instance
	sim.Spawn("driver", func(p *des.Proc) {
		var err error
		inst, err = pr.Provision(p, "bx2-8x32") // 48s boot
		if err != nil {
			t.Errorf("Provision: %v", err)
			return
		}
		p.Sleep(72 * time.Second)
		inst.Stop() // 120s billed
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	pb := Default()
	compute := 120.0 / 3600 * 0.3840
	volume := 32 * 0.022 * (120.0 / 3600) / (30 * 24)
	want := compute + volume
	if got := pb.VMCost([]*vm.Instance{inst}); math.Abs(got-want) > 1e-9 {
		t.Fatalf("VMCost = %g, want %g", got, want)
	}
}

func TestVMCostEmpty(t *testing.T) {
	if got := Default().VMCost(nil); got != 0 {
		t.Fatalf("VMCost(nil) = %g, want 0", got)
	}
}

func TestReportTotalsAndRendering(t *testing.T) {
	var r Report
	r.Add("functions (sort)", 0.004)
	r.Add("storage requests", 0.001)
	r.Add("vm", 0)
	if got := r.Total(); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("Total = %g, want 0.005", got)
	}
	s := r.String()
	for _, want := range []string{"functions (sort)", "storage requests", "TOTAL"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestStageCostAppendTo(t *testing.T) {
	stage := StageCost{Functions: 0.002, Storage: 0.001}
	var total Report
	total.Add("earlier", 0.5)
	stage.AppendTo(&total, "sort: ")
	want := []Line{
		{"earlier", 0.5},
		{"sort: functions", 0.002},
		{"sort: storage requests", 0.001},
		{"sort: vm", 0}, // zero lines are kept
		{"sort: cache", 0},
	}
	if len(total.Lines) != len(want) {
		t.Fatalf("lines = %+v, want %+v", total.Lines, want)
	}
	for i, l := range total.Lines {
		if l != want[i] {
			t.Errorf("line %d = %+v, want %+v", i, l, want[i])
		}
	}
	if math.Abs(total.Total()-0.503) > 1e-12 {
		t.Fatalf("total = %g", total.Total())
	}
}

// TestCostAsOfAndRateForm: the as-of forms read the same accrual at an
// earlier instant (nothing before the create call, everything once at
// passes the stop), and HourlyCost, fed an instance's rate, volume and
// billed hours, is VMCost of that instance.
func TestCostAsOfAndRateForm(t *testing.T) {
	pb := Default()
	sim := des.New(1)
	vmPr := vm.NewProvisioner(sim)
	cfg := memcache.DefaultConfig()
	cachePr, err := memcache.NewProvisioner(sim, cfg)
	if err != nil {
		t.Fatalf("provisioner: %v", err)
	}
	var inst *vm.Instance
	var cl *memcache.Cluster
	var midVM, midCache float64
	sim.Spawn("driver", func(p *des.Proc) {
		p.Sleep(10 * time.Second) // both created at t=10s
		cl, _ = cachePr.ProvisionWarm(p, 2)
		inst, _ = vmPr.Provision(p, "bx2-8x32") // 48s boot
		p.Sleep(42 * time.Second)               // t=100s
		midVM, midCache = pb.VMCost([]*vm.Instance{inst}), pb.CacheCost([]*memcache.Cluster{cl})
		p.Sleep(100 * time.Second) // t=200s
		inst.Stop()
		cl.Stop()
		p.Sleep(100 * time.Second) // the clock runs on to t=300s
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	insts, cls := []*vm.Instance{inst}, []*memcache.Cluster{cl}
	for _, tc := range []struct {
		at                time.Duration
		wantVM, wantCache float64
	}{
		{5 * time.Second, 0, 0},
		{100 * time.Second, midVM, midCache},
		{200 * time.Second, pb.VMCost(insts), pb.CacheCost(cls)},
		{time.Hour, pb.VMCost(insts), pb.CacheCost(cls)},
	} {
		if got := pb.VMCostAt(insts, tc.at); got != tc.wantVM {
			t.Errorf("VMCostAt(%v) = %g, want %g", tc.at, got, tc.wantVM)
		}
		if got := pb.CacheCostAt(cls, tc.at); got != tc.wantCache {
			t.Errorf("CacheCostAt(%v) = %g, want %g", tc.at, got, tc.wantCache)
		}
	}
	if midVM <= 0 || midVM >= pb.VMCost(insts) || midCache <= 0 || midCache >= pb.CacheCost(cls) {
		t.Errorf("mid-life costs %g / %g not strictly inside (0, %g) / (0, %g)", midVM, midCache, pb.VMCost(insts), pb.CacheCost(cls))
	}
	it := inst.Type()
	if got, want := pb.HourlyCost(it.HourlyUSD, it.MemoryGB, inst.BilledDuration().Hours()), pb.VMCost(insts); math.Abs(got-want) > 1e-12*want {
		t.Errorf("HourlyCost at the instance's rate = %g, VMCost %g", got, want)
	}
	if got, want := pb.HourlyCost(2*cfg.NodeHourlyUSD, 0, cl.BilledDuration().Hours()), pb.CacheCost(cls); math.Abs(got-want) > 1e-12*want {
		t.Errorf("HourlyCost at two nodes' rate = %g, CacheCost %g", got, want)
	}
}
