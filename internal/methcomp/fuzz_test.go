package methcomp

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// container assembles a METHCOMP container from header fields a
// hostile writer controls, around a given range-coded section.
func container(count uint64, chroms []string, runs [][2]uint64, flags byte, coded []byte) []byte {
	out := append([]byte(magic), version)
	out = binary.AppendUvarint(out, count)
	out = binary.AppendUvarint(out, uint64(len(chroms)))
	for _, c := range chroms {
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
	}
	out = binary.AppendUvarint(out, uint64(len(runs)))
	for _, r := range runs {
		out = binary.AppendUvarint(out, r[0])
		out = binary.AppendUvarint(out, r[1])
	}
	out = append(out, flags)
	out = binary.AppendUvarint(out, uint64(len(coded)))
	return append(out, coded...)
}

// hostileContainers are the decoder's regression cases: each one made
// the decoder at the parent of PR 15 panic, reserve memory from a count
// nothing backed, or accept a container no encoder writes.
func hostileContainers() map[string][]byte {
	dot := byte(flagNamesDot | flagScoreDerived)
	empty := newRangeEncoder().finish()
	return map[string][]byte{
		// 2^34 records claimed over a 5-byte coded section: 1.3 TB
		// reserved, then 2^34 records decoded from fed zeros.
		"count beyond the coded stream": container(1<<34, []string{"chr1"}, [][2]uint64{{0, 1 << 34}}, dot, empty),
		// make([]run, 0, 2^62): makeslice panic.
		"run count beyond the input": append(append([]byte(magic), version, 0, 0), binary.AppendUvarint(nil, 1<<62)...),
		// 2^20 chromosomes claimed by an 8-byte container: 16 MB reserved.
		"chrom count beyond the input": append(append([]byte(magic), version, 0), binary.AppendUvarint(nil, 1<<20)...),
		// pos+n wrapped negative and passed the bounds check: slice panic.
		"chrom name length overflows int": append(append([]byte(magic), version, 0, 1), binary.AppendUvarint(nil, 1<<63-1)...),
		// Two runs of 2^63 sum to 0 mod 2^64, the claimed count.
		"run lengths wrap to the count": container(0, []string{"chr1"}, [][2]uint64{{0, 1 << 63}, {0, 1 << 63}}, dot, empty),
		// One record claimed, none coded: decoded from fed zeros.
		"record beyond the coded stream": container(1, []string{"chr1"}, [][2]uint64{{0, 1}}, dot, empty),
	}
}

func TestDecompressRejectsHostileContainers(t *testing.T) {
	for name, data := range hostileContainers() {
		if _, err := Decompress(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// checkDecompress is the decoder's contract on arbitrary input: no
// panic; a rejected container is ErrCorrupt (or carries a version byte
// this decoder does not read); an accepted one holds valid records
// that survive Compress and Decompress unchanged.
func checkDecompress(t *testing.T, data []byte) {
	t.Helper()
	recs, err := Decompress(data)
	if err != nil {
		wrongVersion := len(data) > len(magic) && data[len(magic)] != version
		if !errors.Is(err, ErrCorrupt) && !wrongVersion {
			t.Fatalf("Decompress(%x): err = %v, want ErrCorrupt", data, err)
		}
		return
	}
	comp, err := Compress(recs)
	if err != nil {
		t.Fatalf("Decompress(%x) returned records Compress rejects: %v", data, err)
	}
	back, err := Decompress(comp)
	if err != nil || !slices.Equal(back, recs) {
		t.Fatalf("Decompress(%x): %d records do not round-trip: %v", data, len(recs), err)
	}
}

// fuzzSeeds are valid containers of each shape (sorted, unsorted,
// empty, name and score trailers), each also truncated and bit-flipped,
// and the hostile headers above.
func fuzzSeeds(t testing.TB) [][]byte {
	named := genSorted(40, 3)
	named[7].Name = "cpg_island_7"
	scored := genSorted(40, 4)
	scored[9].Score = 7
	var seeds [][]byte
	for _, recs := range [][]bed.Record{
		genSorted(60, 1),
		bed.Generate(bed.GenConfig{Records: 60, Seed: 2}),
		nil,
		named,
		scored,
	} {
		comp, err := Compress(recs)
		if err != nil {
			t.Fatal(err)
		}
		flipped := slices.Clone(comp)
		flipped[len(flipped)*2/3] ^= 0x10
		seeds = append(seeds, comp, comp[:len(comp)/2], comp[:len(comp)-1], flipped)
	}
	for _, data := range hostileContainers() {
		seeds = append(seeds, data)
	}
	return seeds
}

// TestDecompressSeeds runs the fuzz seeds without needing -fuzz.
func TestDecompressSeeds(t *testing.T) {
	for _, data := range fuzzSeeds(t) {
		checkDecompress(t, data)
	}
}

// FuzzDecompress: corrupt, truncated and bit-flipped containers return
// an error and never panic or reserve memory from an unchecked count;
// whatever decodes round-trips.
func FuzzDecompress(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(checkDecompress)
}
