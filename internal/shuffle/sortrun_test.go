package shuffle

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
)

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
		strings.Join([]string{
			"chr2\t0070\t00071\t.\t5\t+\t70\t71\t255,0,0\t5\t90",
			"chr1\t300\t301\tsite\t9\t-\t1\t999\t0,255,0\t9\t100",
			"chrUn_KI270752\t5\t6\t.\t3\t.\t5\t6\tjunk\t3\t50",
			"chrUn_KI270751\t9\t10\t.\t3\t.\t9\t10\t255,255,0\t3\t10",
			"chr1\t300\t301\tsite\t4\t+\t300\t301\t255,0,0\t4\t0",
			"chrX\t12\t13\t.\t1000\t+\t12\t13\t0,255,0\t2000\t33",
			"chr1\t+40\t41\t.\t1\t+\t40\t41\t255,0,0\t1\t67",
			"chr1\t300\t301\t.\t7\t+\t300\t301\t255,0,0\t007\t34",
			"chrM\t1\t2\t.\t0\t-\t0\t0\t\t0\t0",
		}, "\n") + "\n",
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
