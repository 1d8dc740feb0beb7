package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// vmPinInputs are the real-bytes inputs the VM strategy's output is
// pinned on, each with the worker count it is cut into: generated records
// unsorted and sorted, a CRLF file with blank and whitespace-only lines
// and no final newline, lines the parser accepts but does not write back
// as they came (leading zeros, derived columns that disagree with the
// record, equal keys, beyond-table names sharing their packed prefix),
// fewer records than workers, and three inputs the parse refuses.
func vmPinInputs() []struct {
	name    string
	raw     []byte
	workers int
} {
	crlf := bed.Marshal(bed.Generate(bed.GenConfig{Records: 40, Seed: 11}))
	crlf = bytes.ReplaceAll(crlf, []byte("\n"), []byte("\r\n"))
	crlf = bytes.Replace(crlf, []byte("\r\n"), []byte("\r\n\r\n \t \r\n"), 3)
	crlf = bytes.TrimSuffix(crlf, []byte("\r\n"))

	noncanon := strings.Join([]string{
		"chr2\t0070\t00071\t.\t5\t+\t70\t71\t255,0,0\t5\t90",
		"chr1\t300\t301\tsite\t9\t-\t1\t999\t0,255,0\t9\t100",
		"chrUn_KI270752\t5\t6\t.\t3\t.\t5\t6\tjunk\t3\t50",
		"chrUn_KI270751\t9\t10\t.\t3\t.\t9\t10\t255,255,0\t3\t10",
		"chr1\t300\t301\tsite\t4\t+\t300\t301\t255,0,0\t4\t0",
		"chrX\t12\t13\t.\t1000\t+\t12\t13\t0,255,0\t2000\t33",
		"chr1\t+40\t41\t.\t1\t+\t40\t41\t255,0,0\t1\t67",
		"chr1\t300\t301\t.\t7\t+\t300\t301\t255,0,0\t007\t34",
		"chrM\t1\t2\t.\t0\t-\t0\t0\t\t0\t0",
	}, "\n") + "\n"

	const good = "chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92\n"
	return []struct {
		name    string
		raw     []byte
		workers int
	}{
		{"unsorted-20k", bed.Marshal(bed.Generate(bed.GenConfig{Records: 20000, Seed: 7})), 8},
		{"sorted-20k", bed.Marshal(bed.Generate(bed.GenConfig{Records: 20000, Seed: 7, Sorted: true})), 7},
		{"crlf-blank-unterminated", crlf, 4},
		{"non-canonical", []byte(noncanon), 3},
		{"fewer-than-workers", bed.Marshal(bed.Generate(bed.GenConfig{Records: 3, Seed: 5})), 8},
		{"bad-integer-line-3", []byte(good + "\n" + "chr1\t1x\t2\t.\t1\t+\t1\t2\tc\t1\t1\n" + good), 4},
		{"short-line-3", []byte(good + " \r\n" + "chr1\t1\t2\r\n" + good), 4},
		{"line-of-4MiB", append([]byte(good+good), bytes.Repeat([]byte{'a'}, 4<<20)...), 4},
	}
}

// TestVMSortOutputPinned holds the VM strategy's output on real bytes to
// testdata/vm_sort.golden, which is compared, never rewritten: every
// output key with the SHA-256 and length of its bytes, the virtual
// instant the sort ends at and the kernel's event count, or the exact
// error text of an input the parse refuses.
func TestVMSortOutputPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/vm_sort.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, in := range vmPinInputs() {
		r := newRig(t)
		var out SortOutcome
		var runErr error
		parts := map[string][]byte{}
		r.sim.Spawn("driver", func(p *des.Proc) {
			c := objectstore.NewClient(r.exec.Store)
			for _, b := range []string{"data", "work"} {
				if runErr = c.CreateBucket(p, b); runErr != nil {
					return
				}
			}
			if runErr = c.Put(p, "data", "in", payload.Real(in.raw)); runErr != nil {
				return
			}
			out, runErr = (&VMExchange{Leg: vm.Leg{InstanceType: "bx2-8x32", SortBps: 100e6}}).RunSort(
				&StageContext{Proc: p, Exec: r.exec},
				shuffle.Spec{InputBucket: "data", InputKey: "in", OutputBucket: "work", OutputPrefix: "sorted/", Workers: in.workers})
			for _, key := range out.OutputKeys {
				pl, err := c.Get(p, "work", key)
				if err != nil {
					t.Errorf("%s: get %s: %v", in.name, key, err)
					return
				}
				b, ok := pl.Bytes()
				if !ok {
					t.Errorf("%s: %s is not real bytes", in.name, key)
				}
				parts[key] = b
			}
		})
		if err := r.sim.Run(); err != nil {
			t.Fatalf("%s: sim: %v", in.name, err)
		}
		if runErr != nil {
			fmt.Fprintf(&got, "%s error: %v\n", in.name, runErr)
			continue
		}
		fmt.Fprintf(&got, "%s workers=%d end=%v events=%d\n", in.name, in.workers, r.sim.Now(), r.sim.Fired())
		for _, key := range out.OutputKeys {
			fmt.Fprintf(&got, "  %s sha256=%x bytes=%d\n", key, sha256.Sum256(parts[key]), len(parts[key]))
		}
	}
	if got.String() != string(want) {
		t.Errorf("VM output moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
