package shuffle

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// nonCanonicalBlock is valid input that bed.AppendTSV would not write
// as it is: leading zeros, a sign, thick columns that are not the
// interval, itemRgb of another level or none, beside scaffolds, a
// duplicate interval and a coverage above the score's cap.
const nonCanonicalBlock = "chr2\t0070\t00071\t.\t5\t+\t70\t71\t255,0,0\t5\t90\n" +
	"chr1\t300\t301\tsite\t9\t-\t1\t999\t0,255,0\t9\t100\n" +
	"chrUn_KI270752\t5\t6\t.\t3\t.\t5\t6\tjunk\t3\t50\n" +
	"chrUn_KI270751\t9\t10\t.\t3\t.\t9\t10\t255,255,0\t3\t10\n" +
	"chr1\t300\t301\tsite\t4\t+\t300\t301\t255,0,0\t4\t0\n" +
	"chrX\t12\t13\t.\t1000\t+\t12\t13\t0,255,0\t2000\t33\n" +
	"chr1\t+40\t41\t.\t1\t+\t40\t41\t255,0,0\t1\t67\n" +
	"chr1\t300\t301\t.\t7\t+\t300\t301\t255,0,0\t007\t34\n" +
	"chrM\t1\t2\t.\t0\t-\t0\t0\t\t0\t0\n"

// equalKeysMixed is twelve lines of one key that differ in their bytes,
// every other one non-canonical (its start zero-padded), so that only
// input order among equal keys keeps the output's bytes, whether a line
// is copied from where it was read or rewritten; a line of a later key
// comes first, so the input is not in order.
func equalKeysMixed() []byte {
	out := bed.AppendTSV(nil, bed.Record{Chrom: "chr4", Start: 1, End: 2, Name: ".", Strand: '+'})
	for i := range 12 {
		line := bed.AppendTSV(nil, bed.Record{Chrom: "chr3", Start: 40, End: 41, Name: ".", Score: 2,
			Strand: '-', Coverage: 2, MethPct: 90 - 7*i})
		if i%2 == 0 {
			line = bytes.Replace(line, []byte("\t40\t"), []byte("\t040\t"), 1)
		}
		out = append(out, line...)
	}
	return out
}

// perturbedGenerate is a Generate file of n unsorted records with every
// fifth line made non-canonical in one of five ways, in turn: a signed
// start, a zero-padded coverage, methylation "-0" (or zero-padded when
// it is not 0), a wrong thickEnd and a wrong itemRgb.
func perturbedGenerate(n int, seed int64) []byte {
	var out []byte
	for i, r := range bed.Generate(bed.GenConfig{Records: n, Seed: seed}) {
		line := bed.AppendTSV(nil, r)
		if i%5 == 0 {
			f := strings.Split(strings.TrimSuffix(string(line), "\n"), "\t")
			switch i / 5 % 5 {
			case 0:
				f[1] = "+" + f[1]
			case 1:
				f[9] = "00" + f[9]
			case 2:
				if f[10] == "0" {
					f[10] = "-0"
				} else {
					f[10] = "0" + f[10]
				}
			case 3:
				f[7] += "1"
			default:
				f[8] = "1,2,3"
			}
			line = []byte(strings.Join(f, "\t") + "\n")
		}
		out = append(out, line...)
	}
	return out
}

// TestMapperPathRewritesNonCanonicalLines runs the mappers' path, every
// exchange of Operator.Sort, on real bytes that are not all canonical:
// the output parts, joined, are bed.Marshal(bed.Sort(bed.Unmarshal(raw)))
// byte for byte, so a line the mapper does not re-write is one that
// needs none.
func TestMapperPathRewritesNonCanonicalLines(t *testing.T) {
	inputs := []struct {
		name    string
		raw     []byte
		workers int
	}{
		{"block", []byte(nonCanonicalBlock), 4},
		{"perturbed-20k", perturbedGenerate(20000, 13), 8},
	}
	for _, in := range inputs {
		recs, err := bed.Unmarshal(in.raw)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		bed.Sort(recs)
		want := bed.Marshal(recs)
		if bytes.Equal(want, in.raw) {
			t.Fatalf("%s: input is already what the sort writes", in.name)
		}
		for _, spec := range []Spec{sortSpec(in.workers), hierSpec(in.workers, 2), cacheSpec(in.workers)} {
			rig := newRig(t)
			var got []byte
			var sortErr error
			rig.sim.Spawn("driver", func(p *des.Proc) {
				c := objectstore.NewClient(rig.store)
				for _, bkt := range []string{"in", "out"} {
					if err := c.CreateBucket(p, bkt); err != nil {
						t.Errorf("bucket %s: %v", bkt, err)
						return
					}
				}
				if err := c.Put(p, "in", "data.bed", payload.RealNoCopy(in.raw)); err != nil {
					t.Errorf("put input: %v", err)
					return
				}
				var res Result
				if res, sortErr = rig.op.Sort(p, spec); sortErr != nil {
					return
				}
				for _, k := range res.OutputKeys {
					pl, err := c.Get(p, "out", k)
					if err != nil {
						t.Errorf("get %s: %v", k, err)
						return
					}
					part, _ := pl.Bytes()
					got = append(got, part...)
				}
			})
			if err := rig.sim.Run(); err != nil {
				t.Fatalf("%s exchange %d: sim: %v", in.name, spec.Exchange, err)
			}
			if sortErr != nil {
				t.Fatalf("%s exchange %d: Sort: %v", in.name, spec.Exchange, sortErr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s exchange %d: %d output bytes differ from bed's %d", in.name, spec.Exchange, len(got), len(want))
			}
		}
	}
}

// sortRunSeeds are the buffers SortRun is checked on without -fuzz: the
// VM pin's inputs (internal/core's TestVMSortOutputPinned) and the seeds
// of bed's FuzzUnmarshalMatchesParse — line endings, blank lines, the
// unterminated last line, a bad integer in each column, error line
// numbers and the 4 MiB line limit.
func sortRunSeeds() [][]byte {
	const (
		good  = "chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92"
		other = "chrX\t5\t6\t.\t3\t-\t5\t6\t0,255,0\t3\t0"
		limit = 4 << 20
	)
	crlf := bed.Marshal(bed.Generate(bed.GenConfig{Records: 40, Seed: 11}))
	crlf = bytes.ReplaceAll(crlf, []byte("\n"), []byte("\r\n"))
	crlf = bytes.Replace(crlf, []byte("\r\n"), []byte("\r\n\r\n \t \r\n"), 3)
	crlf = bytes.TrimSuffix(crlf, []byte("\r\n"))
	cases := []string{
		string(bed.Marshal(bed.Generate(bed.GenConfig{Records: 20000, Seed: 7}))),
		string(bed.Marshal(bed.Generate(bed.GenConfig{Records: 20000, Seed: 7, Sorted: true}))),
		string(crlf),
		nonCanonicalBlock,
		string(equalKeysMixed()),
		string(bed.Marshal(bed.Generate(bed.GenConfig{Records: 3, Seed: 5}))),
		good + "\n\n" + "chr1\t1x\t2\t.\t1\t+\t1\t2\tc\t1\t1\n" + good + "\n",
		good + "\n \r\n" + "chr1\t1\t2\r\n" + good + "\n",

		"", "\n", "\r\n", "\r", "\n\n\n",
		good, good + "\n",
		good + "\r\n" + other + "\r\n",
		good + "\r\n" + other + "\r",
		good + "\r\r\n",
		good + "\n\r" + other,
		good + "\n\n" + other + "\n",
		good + "\n \t \n" + other + "\n",
		good + "\n \u0085\n" + other + "\n",
		good + "\n" + other + "\n\n",
		good + "\n" + other + "\n   ",
		good + "\n" + other + "\n\r",
		"\n\n" + good + "\n" + other,
		good + "\x00\n",
		good + "\n" + strings.Repeat("a", limit+1),
		good + "\n" + strings.Repeat("a", limit) + "\n",
		good + "\n" + strings.Repeat("a", limit-1) + "\n",
		"bad\n" + strings.Repeat("a", limit+1),
	}
	fields := strings.Split(good, "\t")
	for i := range fields {
		bad := append([]string(nil), fields...)
		bad[i] = "1x"
		cases = append(cases, good+"\n"+strings.Join(bad, "\t")+"\n"+other+"\n")
	}
	out := make([][]byte, len(cases))
	for i, c := range cases {
		out[i] = []byte(c)
	}
	return out
}

// checkSortRun asserts SortRun returns what parsing, sorting and writing
// the records does: the same bytes, or an error with the same text.
func checkSortRun(t *testing.T, raw []byte) {
	t.Helper()
	got, gotErr := SortRun(raw)
	recs, wantErr := bed.Unmarshal(raw)
	var want []byte
	if wantErr == nil {
		bed.Sort(recs)
		want = bed.Marshal(recs)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("SortRun of %d bytes: err %v, want %v", len(raw), gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SortRun of %d bytes: %d bytes differ from bed's %d", len(raw), len(got), len(want))
	}
}

// TestSortRunMatchesBed checks every seed, the multi-megabyte ones that
// FuzzSortRun leaves out included.
func TestSortRunMatchesBed(t *testing.T) {
	for _, raw := range sortRunSeeds() {
		checkSortRun(t, raw)
	}
}

// FuzzSortRun differentially fuzzes the VM's sort against
// bed.Marshal(bed.Sort(bed.Unmarshal(raw))). It is seeded with the seeds
// of up to 64 KiB: once a mutation of a larger one (the pin's 20k-record
// files, the 4 MiB lines) is interesting, the minimizer spends its whole
// budget on it, about one candidate per byte, and the workers stall.
func FuzzSortRun(f *testing.F) {
	for _, raw := range sortRunSeeds() {
		if len(raw) <= 64<<10 {
			f.Add(raw)
		}
	}
	f.Fuzz(checkSortRun)
}

// TestSortRunAllocatesNoLineBuffer holds the VM leg's sort of ~2 MB of
// canonical lines to what it must own: the sorted output and a key
// index of one entry a line, with 64 KiB to spare. Its lines are copied
// once, from where they were read; a line buffer beside the output
// would be another 2 MB.
func TestSortRunAllocatesNoLineBuffer(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	raw := bed.Marshal(bed.Generate(bed.GenConfig{Records: 35000, Seed: 23}))
	lines := bytes.Count(raw, []byte{'\n'})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := SortRun(raw)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(len(out)) + uint64(lines)*uint64(unsafe.Sizeof(bed.KeyRef{})) + 64<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("SortRun of %d bytes (%d lines) allocated %d bytes, budget %d", len(raw), lines, got, budget)
	}
}
