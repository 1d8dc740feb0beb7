package core

import (
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// sortedOutput reads back the sorted parts and checks the full record
// set survived the recovery path intact.
func sortedOutput(t *testing.T, r *rig, want int) {
	t.Helper()
	var all []bed.Record
	r.sim.Spawn("verify", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		keys, err := c.ListAll(p, "work", "sorted/")
		if err != nil {
			t.Errorf("list: %v", err)
			return
		}
		for _, k := range keys {
			pl, err := c.Get(p, "work", k)
			if err != nil {
				t.Errorf("get %s: %v", k, err)
				return
			}
			raw, _ := pl.Bytes()
			part, err := bed.Unmarshal(raw)
			if err != nil {
				t.Errorf("parse %s: %v", k, err)
				return
			}
			all = append(all, part...)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatalf("verify sim: %v", err)
	}
	if len(all) != want || !bed.IsSorted(all) {
		t.Fatalf("output: %d records, sorted=%v; want %d sorted", len(all), bed.IsSorted(all), want)
	}
}

// TestVMExchangeRecoversFromPreemption: a spot leg preempted mid-sort
// restarts on a fresh on-demand instance, the rework is metered in the
// stage report, and the output is byte-correct.
func TestVMExchangeRecoversFromPreemption(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 31, Sorted: false})
	params := stageData(t, r, recs)
	size := len(bed.Marshal(recs))

	// The chaos process preempts the spot instance the moment it
	// registers (boot completion): the 30s notice expires mid-sort —
	// SortBps stretches the local sort to 60s — so the attempt dies
	// holding the staged bytes.
	r.sim.Spawn("chaos", func(p *des.Proc) {
		for len(r.exec.Provisioner.Instances()) == 0 {
			p.Sleep(time.Second)
		}
		r.exec.Provisioner.Instances()[0].Preempt()
	})

	w := NewWorkflow("spot-sort")
	if err := w.Add(&SortStage{
		Strategy: &VMExchange{Leg: vm.Leg{InstanceType: "bx2-8x32", SortBps: float64(size) / 60}, Spot: true},
		Params:   params,
	}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run after preemption: %v", err)
	}
	sr, ok := rep.Stage("sort")
	if !ok {
		t.Fatal("no sort stage report")
	}
	if sr.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", sr.Restarts)
	}
	if sr.ReworkBytes != int64(size) {
		t.Errorf("ReworkBytes = %d, want the staged input %d", sr.ReworkBytes, size)
	}
	if rep.Restarts() != 1 || rep.ReworkBytes() != int64(size) {
		t.Errorf("run rollup = %d restarts / %d rework, want 1 / %d",
			rep.Restarts(), rep.ReworkBytes(), size)
	}

	insts := r.exec.Provisioner.Instances()
	if len(insts) != 2 {
		t.Fatalf("instances = %d, want 2 (preempted spot + on-demand fallback)", len(insts))
	}
	if !insts[0].Spot() || !insts[0].Preempted() {
		t.Error("first instance should be the preempted spot leg")
	}
	if insts[1].Spot() {
		t.Error("fallback instance is spot; a second preemption could cascade")
	}
	for i, inst := range insts {
		if !inst.Stopped() {
			t.Errorf("instance %d left running", i)
		}
	}
	sortedOutput(t, r, len(recs))
}

// TestCacheExchangeSurvivesNodeLoss: killing a cache node mid-shuffle
// degrades the lost shard's slabs to the object-storage fallback (with
// regeneration for slabs that died unread) instead of failing the run.
func TestCacheExchangeSurvivesNodeLoss(t *testing.T) {
	r, prov := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 37, Sorted: false})
	params := stageData(t, r, recs)

	// Kill a node once the map phase has slabs in memory: some are
	// rerouted at write time, the rest are lost and must regenerate.
	r.sim.Spawn("chaos", func(p *des.Proc) {
		for {
			cls := prov.Clusters()
			if len(cls) > 0 && cls[0].UsedBytes() > 0 {
				cls[0].KillNode(0)
				return
			}
			p.Sleep(10 * time.Millisecond)
		}
	})

	w := NewWorkflow("cache-sort-nodeloss")
	if err := w.Add(&SortStage{Strategy: &CacheExchange{}, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("Run after node loss: %v", err)
	}
	sr, ok := rep.Stage("sort")
	if !ok {
		t.Fatal("no sort stage report")
	}
	if sr.FallbackSlabs == 0 {
		t.Error("node loss caused no fallback slabs")
	}
	if prov.Clusters()[0].DownNodes() != 1 {
		t.Errorf("DownNodes = %d, want 1", prov.Clusters()[0].DownNodes())
	}
	sortedOutput(t, r, len(recs))
}
