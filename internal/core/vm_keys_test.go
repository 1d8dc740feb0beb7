package core

import (
	"reflect"
	"testing"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// TestVMPartKeysListInIndexOrder: the VM strategy names its output parts
// with the shuffle's OutputKey, so a listing of the prefix returns them in
// index order past part 9,999 too, and a stage writes the same keys
// whichever family AutoExchange picks. With its own "%spart-%04d" the
// strategy wrote part 10000 as "part-10000", which lists before
// "part-9999".
func TestVMPartKeysListInIndexOrder(t *testing.T) {
	r := newRig(t)
	const parts = 10001
	var out SortOutcome
	var listed []string
	var err error
	r.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(r.exec.Store)
		for _, b := range []string{"data", "work"} {
			if err = c.CreateBucket(p, b); err != nil {
				return
			}
		}
		if err = c.Put(p, "data", "in", payload.Sized(parts)); err != nil {
			return
		}
		out, err = (&VMExchange{Leg: vm.Leg{InstanceType: "bx2-8x32"}}).RunSort(&StageContext{Proc: p, Exec: r.exec},
			shuffle.Spec{InputBucket: "data", InputKey: "in", OutputBucket: "work", OutputPrefix: "sorted/", Workers: parts})
		if err == nil {
			listed, err = c.ListAll(p, "work", "sorted/")
		}
	})
	if serr := r.sim.Run(); serr != nil || err != nil {
		t.Fatalf("sim %v, run %v", serr, err)
	}
	for i, key := range out.OutputKeys {
		if want := shuffle.OutputKey("sorted/", i); key != want {
			t.Fatalf("part %d is %q, the shuffle names it %q", i, key, want)
		}
	}
	if !reflect.DeepEqual(listed, out.OutputKeys) {
		t.Fatalf("a listing of the prefix is not the parts in index order: it ends %q, the parts end %q",
			listed[len(listed)-2:], out.OutputKeys[parts-2:])
	}
}
