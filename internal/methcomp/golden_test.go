package methcomp

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// goldenInputs are the record sets whose containers are pinned: sorted
// Generate output at three sizes (62.5k is one encode task of the
// benchmark's 500k-record real-bytes run, 500k the whole run's
// dataset), unsorted records, and one container with each exception
// trailer.
func goldenInputs() []struct {
	name string
	recs []bed.Record
} {
	named := genSorted(1000, 3)
	named[17].Name = "cpg_island_17"
	named[540].Name = "x"
	scored := genSorted(1000, 4)
	scored[9].Score = 7
	scored[901].Score = 0
	return []struct {
		name string
		recs []bed.Record
	}{
		{"sorted-1k", genSorted(1000, 7)},
		{"sorted-62.5k", genSorted(62500, 7)},
		{"sorted-500k", genSorted(500000, 7)},
		{"unsorted-20k", bed.Generate(bed.GenConfig{Records: 20000, Seed: 7})},
		{"names-1k", named},
		{"scores-1k", scored},
	}
}

// TestCompressGolden pins the container byte for byte: its SHA-256, its
// length and Stats.Ratio for each input. The codec's output is the encode
// stage's output bytes, so a coder change that moves one bit moves every
// simulated size, time and bill downstream. testdata/compress.golden is
// compared, never rewritten.
func TestCompressGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/compress.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, in := range goldenInputs() {
		st, comp, err := Measure(in.recs)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		back, err := Decompress(comp)
		if err != nil || len(back) != len(in.recs) {
			t.Fatalf("%s: Decompress: %d records, %v", in.name, len(back), err)
		}
		fmt.Fprintf(&got, "%s sha256=%x bytes=%d ratio=%v\n", in.name, sha256.Sum256(comp), len(comp), st.Ratio)
	}
	if got.String() != string(want) {
		t.Errorf("containers moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// The codec's micro-benchmarks run on one encode task's input: 62.5k
// sorted records.

func BenchmarkCompress(b *testing.B) {
	recs := genSorted(62500, 7)
	b.SetBytes(int64(len(bed.Marshal(recs))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressLines codes the same task from its sorted part's
// bytes, as the encode stage does.
func BenchmarkCompressLines(b *testing.B) {
	raw := bed.Marshal(genSorted(62500, 7))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressLines(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	recs := genSorted(62500, 7)
	comp, err := Compress(recs)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bed.Marshal(recs))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}
