package methcomp

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// checkCompressLines: the line form returns exactly the bytes of
// Compress(bed.Unmarshal(raw)), or fails where that fails, with the same
// error text.
func checkCompressLines(t *testing.T, raw []byte) {
	t.Helper()
	got, gotErr := CompressLines(raw)
	recs, wantErr := bed.Unmarshal(raw)
	var want []byte
	if wantErr == nil {
		want, wantErr = Compress(recs)
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("CompressLines(%q): err = %v, want %v", trim(raw), gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CompressLines(%q): %d bytes differ from Compress's %d", trim(raw), len(got), len(want))
	}
}

// trim shortens an input for a failure message.
func trim(raw []byte) []byte {
	return raw[:min(len(raw), 200)]
}

// compressLinesSeeds are the golden inputs as TSV, cut to maxRecords
// records, and parts that test
// the line walk: CRLF endings with blank and whitespace-only lines, a
// strand '.', a strand '.' before a bad integer (the parse error wins),
// name and score exceptions on the lines themselves, a truncated last
// line and one with no newline.
func compressLinesSeeds(maxRecords int) [][]byte {
	var seeds [][]byte
	for _, in := range goldenInputs() {
		seeds = append(seeds, bed.Marshal(in.recs[:min(len(in.recs), maxRecords)]))
	}
	const good = "chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92\n"
	const dot = "chr1\t10470\t10471\t.\t3\t.\t10470\t10471\t0,255,0\t3\t0\n"
	const badInt = "chr1\t1x\t2\t.\t1\t+\t1\t2\t0,255,0\t1\t1\n"
	small := bed.Marshal(genSorted(16, 5))
	crlf := bytes.ReplaceAll(small, []byte("\n"), []byte("\r\n"))
	crlf = bytes.Replace(crlf, []byte("\r\n"), []byte("\r\n\r\n \t \r\n"), 3)
	return append(seeds,
		nil,
		crlf,
		[]byte(good+dot+good),
		[]byte(good+dot+good+badInt),
		[]byte(good+strings.Replace(good, "\t.\t", "\tcpg_7\t", 1)),
		[]byte(good+strings.Replace(good, "\t14\t+", "\t9\t+", 1)),
		small[:len(small)-20],
		bytes.TrimSuffix(small, []byte("\n")),
		[]byte("\n\n"+good+"\r\n"),
	)
}

// TestCompressLinesMatchesCompress checks every seed, the multi-megabyte
// golden inputs that FuzzCompressLines leaves out included.
func TestCompressLinesMatchesCompress(t *testing.T) {
	for _, raw := range compressLinesSeeds(math.MaxInt) {
		checkCompressLines(t, raw)
	}
}

// FuzzCompressLines differentially fuzzes the line form against
// Compress(bed.Unmarshal(raw)). It is seeded with the golden inputs cut to
// their first 16 records (1 KB): the minimizer tries about one candidate a
// byte of each new input, and on a 58 KB one that stalls the workers for
// minutes.
func FuzzCompressLines(f *testing.F) {
	for _, raw := range compressLinesSeeds(16) {
		f.Add(raw)
	}
	f.Fuzz(checkCompressLines)
}

// TestCompressLinesAllocBudget holds one encode task's sorted part (62.5k
// lines) under 1 MB allocated, in at most compressLinesAllocs
// allocations: the coder's eight adaptive models, the dictionary and the
// run list as they grow, the coded stream's buffer once, the container
// once, and one growth of the coded buffer to spare. The buffer is sized
// from the part's line count, so a sorted part does not take that growth.
// bed.Unmarshal, which the encode stage ran before the coder read lines,
// took 5 MB on this part alone.
func TestCompressLinesAllocBudget(t *testing.T) {
	const compressLinesAllocs = 55
	raw := bed.Marshal(genSorted(62500, 7))
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := CompressLines(raw); err != nil {
			t.Fatal(err)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := CompressLines(raw); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytesAllocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%v allocations, %d bytes", allocs, bytesAllocated)
	if allocs > compressLinesAllocs {
		t.Errorf("CompressLines: %v allocations, budget %d", allocs, compressLinesAllocs)
	}
	if bytesAllocated >= 1<<20 {
		t.Errorf("CompressLines: %d bytes allocated, budget 1 MB", bytesAllocated)
	}
}
