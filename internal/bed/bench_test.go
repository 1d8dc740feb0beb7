package bed

import (
	"bytes"
	"testing"
)

// The data-plane benchmarks run over one workload (20k generated
// records, seed 11 — the same fixture the shuffle package's benchmarks
// use). The legacy twins they were first measured against are retired;
// their numbers are in EXPERIMENTS.md (and `git show 80bdab0:BENCH_10.json`).

func benchRecords() []Record {
	return Generate(GenConfig{Records: 20000, Seed: 11, Sorted: false})
}

func benchLines(recs []Record) [][]byte {
	data := Marshal(recs)
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

func BenchmarkParseLine(b *testing.B) {
	lines := benchLines(benchRecords())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyOfLine(b *testing.B) {
	lines := benchLines(benchRecords())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KeyOfLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSort(b *testing.B) {
	recs := benchRecords()
	scratch := make([]Record, len(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, recs)
		Sort(scratch)
	}
}

// The whole-buffer codec on 100k records (5.8 MB of TSV): Unmarshal is
// every encode task's parse (its loop, EachRecord, is also the VM
// exchange's), Marshal the oracle and the benchmark's set-up.

func BenchmarkUnmarshal(b *testing.B) {
	data := Marshal(Generate(GenConfig{Records: 100000, Seed: 11}))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

var marshalSink []byte

func BenchmarkMarshal(b *testing.B) {
	recs := Generate(GenConfig{Records: 100000, Seed: 11})
	b.SetBytes(int64(len(Marshal(recs))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marshalSink = Marshal(recs)
	}
}
