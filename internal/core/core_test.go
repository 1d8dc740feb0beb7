package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/billing"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

type rig struct {
	sim  *des.Sim
	exec *Executor
}

func newRig(t *testing.T) *rig { return newRigWith(t, nil) }

// newRigWith builds the rig with a cache provisioner of config cache
// wired into its operator and executor (nil: none, so no cache sorts).
func newRigWith(t *testing.T, cache *memcache.Config) *rig {
	t.Helper()
	sim := des.New(1)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   time.Millisecond,
		PerConnBandwidth: 1e9,
		ReadOpsPerSec:    1e6,
		WriteOpsPerSec:   1e6,
		OpsBurst:         1e6,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := faas.New(sim, store, faas.Config{
		ColdStart:          50 * time.Millisecond,
		WarmStart:          5 * time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   500,
		BillingGranularity: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	var cacheProv *memcache.Provisioner
	if cache != nil {
		if cacheProv, err = memcache.NewProvisioner(sim, *cache); err != nil {
			t.Fatalf("cache provisioner: %v", err)
		}
	}
	op, err := shuffle.NewOperator(pf, store, cacheProv)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	prov := vm.NewProvisioner(sim)
	exec := NewExecutor(sim, store, pf, prov, op, billing.Default())
	exec.CacheProv = cacheProv
	return &rig{sim: sim, exec: exec}
}

func (r *rig) run(t *testing.T, w *Workflow) (*RunReport, error) {
	t.Helper()
	var rep *RunReport
	var runErr error
	r.sim.Spawn("driver", func(p *des.Proc) {
		rep, runErr = r.exec.Run(p, w)
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	return rep, runErr
}

func TestWorkflowValidate(t *testing.T) {
	w := NewWorkflow("wf")
	noop := func(name string) *FuncStage {
		return &FuncStage{StageName: name, Fn: func(*StageContext) error { return nil }}
	}
	if err := w.Validate(); err == nil {
		t.Fatal("empty workflow validated")
	}
	if err := w.Add(noop("a")); err != nil {
		t.Fatalf("Add a: %v", err)
	}
	if err := w.Add(noop("a")); err == nil {
		t.Fatal("duplicate stage accepted")
	}
	if err := w.Add(noop("b"), "ghost"); err != nil {
		t.Fatalf("Add b: %v", err) // unknown dep caught at Validate
	}
	if err := w.Validate(); err == nil {
		t.Fatal("unknown dependency validated")
	}
}

func TestWorkflowCycleDetection(t *testing.T) {
	w := NewWorkflow("cycle")
	noop := func(name string, deps ...string) {
		_ = w.Add(&FuncStage{StageName: name, Fn: func(*StageContext) error { return nil }}, deps...)
	}
	noop("a", "c")
	noop("b", "a")
	noop("c", "b")
	if err := w.Validate(); err == nil {
		t.Fatal("cycle validated")
	}
}

func TestStagesRunInDependencyOrder(t *testing.T) {
	r := newRig(t)
	var order []string
	w := NewWorkflow("order")
	add := func(name string, d time.Duration, deps ...string) {
		_ = w.Add(&FuncStage{StageName: name, Fn: func(ctx *StageContext) error {
			ctx.Proc.Sleep(d)
			order = append(order, name)
			return nil
		}}, deps...)
	}
	add("fetch", 10*time.Millisecond)
	add("sortish", 30*time.Millisecond, "fetch")
	add("encodeish", 10*time.Millisecond, "sortish")
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"fetch", "sortish", "encodeish"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if rep.Latency() != 50*time.Millisecond {
		t.Fatalf("latency = %v, want 50ms", rep.Latency())
	}
}

func TestIndependentStagesRunConcurrently(t *testing.T) {
	r := newRig(t)
	w := NewWorkflow("par")
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("s%d", i)
		_ = w.Add(&FuncStage{StageName: name, Fn: func(ctx *StageContext) error {
			ctx.Proc.Sleep(time.Second)
			return nil
		}})
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Latency() != time.Second {
		t.Fatalf("latency = %v, want 1s (parallel stages)", rep.Latency())
	}
}

func TestStageErrorAbortsDownstream(t *testing.T) {
	r := newRig(t)
	w := NewWorkflow("fail")
	boom := errors.New("boom")
	ran := map[string]bool{}
	_ = w.Add(&FuncStage{StageName: "a", Fn: func(ctx *StageContext) error {
		ran["a"] = true
		return boom
	}})
	_ = w.Add(&FuncStage{StageName: "b", Fn: func(ctx *StageContext) error {
		ran["b"] = true
		return nil
	}}, "a")
	rep, err := r.run(t, w)
	if !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want boom", err)
	}
	if ran["b"] {
		t.Fatal("downstream stage ran after failure")
	}
	if sr, ok := rep.Stage("a"); !ok || sr.Err == nil {
		t.Fatal("failed stage not reported")
	}
}

func TestRunStateKeys(t *testing.T) {
	st := &RunState{}
	st.Set("x.keys", []string{"a", "b"})
	keys, err := st.Keys("x.keys")
	if err != nil || len(keys) != 2 {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	if _, err := st.Keys("missing"); err == nil {
		t.Fatal("missing key accepted")
	}
	st.Set("bad", 42)
	if _, err := st.Keys("bad"); err == nil {
		t.Fatal("wrong type accepted")
	}
}

// prepareInput creates buckets and stores records as the pipeline
// input.
func prepareInput(t *testing.T, r *rig, recs []bed.Record) {
	t.Helper()
	r.sim.Spawn("setup", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		for _, b := range []string{"in", "out"} {
			if err := c.CreateBucket(p, b); err != nil {
				t.Errorf("bucket %s: %v", b, err)
			}
		}
		if err := c.Put(p, "in", "data.bed", payload.RealNoCopy(bed.Marshal(recs))); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("setup sim: %v", err)
	}
}

func sortParams(workers int) shuffle.Spec {
	return shuffle.Spec{
		InputBucket: "in", InputKey: "data.bed",
		OutputBucket: "out", OutputPrefix: "sorted/",
		Workers: workers,
	}
}

// verifySorted reads back output parts and checks global order and
// record preservation.
func verifySorted(t *testing.T, r *rig, keys []string, want []bed.Record) {
	t.Helper()
	r.sim.Spawn("verify", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		var all []bed.Record
		for _, k := range keys {
			pl, err := c.Get(p, "out", k)
			if err != nil {
				t.Errorf("get %s: %v", k, err)
				return
			}
			raw, ok := pl.Bytes()
			if !ok {
				t.Errorf("part %s not real", k)
				return
			}
			recs, err := bed.Unmarshal(raw)
			if err != nil {
				t.Errorf("parse %s: %v", k, err)
				return
			}
			all = append(all, recs...)
		}
		if len(all) != len(want) {
			t.Errorf("got %d records, want %d", len(all), len(want))
			return
		}
		if !bed.IsSorted(all) {
			t.Error("output not globally sorted")
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("verify sim: %v", err)
	}
}

func TestSortStageObjectStorageStrategy(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 1, Sorted: false})
	prepareInput(t, r, recs)
	w := NewWorkflow("sort-os")
	var gotKeys []string
	_ = w.Add(&SortStage{Strategy: ObjectStorageExchange{}, Params: sortParams(6)})
	_ = w.Add(&FuncStage{StageName: "collect", Fn: func(ctx *StageContext) error {
		keys, err := ctx.State.Keys("sort.keys")
		if err != nil {
			return err
		}
		gotKeys = keys
		return nil
	}}, "sort")
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sr, ok := rep.Stage("sort")
	if !ok || sr.Err != nil {
		t.Fatalf("sort stage report = %+v", sr)
	}
	if sr.Faas.Invocations != 12 { // 6 map + 6 reduce
		t.Fatalf("invocations = %d, want 12", sr.Faas.Invocations)
	}
	if sr.Cost.VM != 0 {
		t.Fatalf("object-storage strategy charged VM cost %g", sr.Cost.VM)
	}
	if len(gotKeys) != 6 {
		t.Fatalf("output keys = %d, want 6", len(gotKeys))
	}
	verifySorted(t, r, gotKeys, recs)
}

func TestSortStageVMStrategy(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 2, Sorted: false})
	prepareInput(t, r, recs)
	w := NewWorkflow("sort-vm")
	strat := &VMExchange{Leg: vm.Leg{InstanceType: "bx2-8x32", Setup: 10 * time.Second, SortBps: 400e6}}
	var gotKeys []string
	_ = w.Add(&SortStage{Strategy: strat, Params: sortParams(8)})
	_ = w.Add(&FuncStage{StageName: "collect", Fn: func(ctx *StageContext) error {
		keys, err := ctx.State.Keys("sort.keys")
		if err != nil {
			return err
		}
		gotKeys = keys
		return nil
	}}, "sort")
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sr, _ := rep.Stage("sort")
	if sr.Cost.VM <= 0 {
		t.Fatalf("VM strategy charged no VM cost: %+v", sr)
	}
	if sr.Faas.Invocations != 0 {
		t.Fatalf("VM sort used %d function invocations", sr.Faas.Invocations)
	}
	// Boot (48s) + setup (10s) dominate.
	if sr.Duration() < 58*time.Second {
		t.Fatalf("VM sort took %v, want >= 58s (boot+setup)", sr.Duration())
	}
	if len(gotKeys) != 8 {
		t.Fatalf("output keys = %d, want 8", len(gotKeys))
	}
	verifySorted(t, r, gotKeys, recs)
}

func TestVMExchangeRequiresWorkers(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 3})
	prepareInput(t, r, recs)
	w := NewWorkflow("vm-noworkers")
	_ = w.Add(&SortStage{Strategy: &VMExchange{Leg: vm.Leg{InstanceType: "bx2-8x32"}}, Params: sortParams(0)})
	_, err := r.run(t, w)
	if err == nil {
		t.Fatal("VM exchange accepted Workers=0")
	}
}

func TestVMExchangeMemoryGate(t *testing.T) {
	r := newRig(t)
	r.sim.Spawn("setup", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		// 100 GB sized dataset cannot fit a 32 GB instance.
		_ = c.Put(p, "in", "data.bed", payload.Sized(100<<30))
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	w := NewWorkflow("vm-oom")
	_ = w.Add(&SortStage{Strategy: &VMExchange{Leg: vm.Leg{InstanceType: "bx2-8x32"}}, Params: sortParams(8)})
	_, err := r.run(t, w)
	if err == nil {
		t.Fatal("oversized dataset accepted by VM exchange")
	}
}

func TestMapStageFansOut(t *testing.T) {
	r := newRig(t)
	_ = r.exec.Platform.Register("toupper", func(ctx *faas.Ctx, in any) (any, error) {
		key, _ := in.(string)
		pl, err := ctx.Store.Get(ctx.Proc, "in", key)
		if err != nil {
			return nil, err
		}
		raw, _ := pl.Bytes()
		outKey := "upper/" + key
		err = ctx.Store.Put(ctx.Proc, "out", outKey, payload.RealNoCopy(bytesToUpper(raw)))
		return outKey, err
	})
	r.sim.Spawn("setup", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		for i := 0; i < 5; i++ {
			_ = c.Put(p, "in", fmt.Sprintf("obj%d", i), payload.Real([]byte("abc")))
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	w := NewWorkflow("map")
	keys := []string{"obj0", "obj1", "obj2", "obj3", "obj4"}
	_ = w.Add(&MapStage{
		StageName:    "upper",
		Function:     "toupper",
		StaticInputs: keys,
		BuildInput:   func(k string, _ int) any { return k },
	})
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sr, _ := rep.Stage("upper")
	if sr.Faas.Invocations != 5 {
		t.Fatalf("invocations = %d, want 5", sr.Faas.Invocations)
	}
}

func bytesToUpper(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		out[i] = c
	}
	return out
}

func TestMapStageRequiresInputs(t *testing.T) {
	r := newRig(t)
	_ = r.exec.Platform.Register("noop", func(ctx *faas.Ctx, in any) (any, error) { return nil, nil })
	w := NewWorkflow("empty-map")
	_ = w.Add(&MapStage{StageName: "m", Function: "noop", BuildInput: func(k string, _ int) any { return k }})
	if _, err := r.run(t, w); err == nil {
		t.Fatal("map with no inputs accepted")
	}
}

func TestCostReportAggregates(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 4, Sorted: false})
	prepareInput(t, r, recs)
	w := NewWorkflow("cost")
	_ = w.Add(&SortStage{Strategy: ObjectStorageExchange{}, Params: sortParams(4)})
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.MeteredUSD() <= 0 {
		t.Fatalf("total cost = %g, want > 0", rep.MeteredUSD())
	}
	sr, _ := rep.Stage("sort")
	if sr.Cost.Total() <= 0 {
		t.Fatal("stage cost empty")
	}
	if rep.MeteredUSD() != sr.Cost.Total() {
		t.Fatalf("run cost %g != stage cost %g for single-stage run",
			rep.MeteredUSD(), sr.Cost.Total())
	}
	bill := rep.Cost()
	if bill.Total() != rep.MeteredUSD() {
		t.Fatalf("itemized bill %g != metered %g", bill.Total(), rep.MeteredUSD())
	}
	var labels []string
	for _, l := range bill.Lines {
		labels = append(labels, l.Label)
	}
	if got, want := strings.Join(labels, "|"), "sort: functions|sort: storage requests|sort: vm|sort: cache"; got != want {
		t.Fatalf("bill lines = %s, want %s", got, want)
	}
}

type recordingListener struct {
	started  []string
	finished []string
	runDone  int
}

func (l *recordingListener) StageStarted(wf, stage string, at time.Duration) {
	l.started = append(l.started, stage)
}
func (l *recordingListener) StageFinished(wf string, rep StageReport) {
	l.finished = append(l.finished, rep.Name)
}
func (l *recordingListener) RunFinished(rep *RunReport) { l.runDone++ }

func TestListenerEvents(t *testing.T) {
	r := newRig(t)
	lis := &recordingListener{}
	r.exec.AddListener(lis)
	w := NewWorkflow("events")
	_ = w.Add(&FuncStage{StageName: "a", Fn: func(*StageContext) error { return nil }})
	_ = w.Add(&FuncStage{StageName: "b", Fn: func(*StageContext) error { return nil }}, "a")
	if _, err := r.run(t, w); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(lis.started) != 2 || len(lis.finished) != 2 || lis.runDone != 1 {
		t.Fatalf("listener = %+v", lis)
	}
}

// TestFirstErrorIsTheEarliest: two independent stages fail at different
// instants, once with the stage on the caller's process failing first
// and once with the spawned one first. Run returns the earlier failure,
// and both failures are in the report.
func TestFirstErrorIsTheEarliest(t *testing.T) {
	for _, tc := range []struct {
		name         string
		caller, spun time.Duration
		want         string
	}{
		{"caller first", time.Second, 2 * time.Second, "caller"},
		{"spawned first", 2 * time.Second, time.Second, "spawned"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			w := NewWorkflow("race")
			errs := map[string]error{}
			fail := func(name string, after time.Duration) {
				errs[name] = errors.New(name + " failed")
				if err := w.Add(&FuncStage{StageName: name, Fn: func(ctx *StageContext) error {
					ctx.Proc.Sleep(after)
					return errs[name]
				}}); err != nil {
					t.Fatal(err)
				}
			}
			fail("caller", tc.caller)
			fail("spawned", tc.spun)
			rep, err := r.run(t, w)
			if !errors.Is(err, errs[tc.want]) {
				t.Fatalf("Run err = %v, want %v", err, errs[tc.want])
			}
			if want := fmt.Sprintf("core: stage %q: %s failed", tc.want, tc.want); err.Error() != want {
				t.Errorf("Run err = %q, want %q", err, want)
			}
			for name, e := range errs {
				if sr, ok := rep.Stage(name); !ok || !errors.Is(sr.Err, e) {
					t.Errorf("stage %s reported err %v, want %v", name, sr.Err, e)
				}
			}
			if len(rep.Stages) != 2 || rep.Stages[0].Name != tc.want {
				t.Errorf("report holds %d stages, want 2 with %s first", len(rep.Stages), tc.want)
			}
		})
	}
}
