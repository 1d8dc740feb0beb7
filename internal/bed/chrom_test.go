package bed

import (
	"bytes"
	"errors"
	"testing"
)

// oracleInternTab is the map chromTab replaced (the hg38 chromosomes
// and the "." feature name, each mapped to itself), kept as the
// table's oracle with chromRank.
var oracleInternTab = func() map[string]string {
	tab := make(map[string]string, 32)
	for _, s := range []string{
		"chr1", "chr2", "chr3", "chr4", "chr5", "chr6", "chr7", "chr8",
		"chr9", "chr10", "chr11", "chr12", "chr13", "chr14", "chr15",
		"chr16", "chr17", "chr18", "chr19", "chr20", "chr21", "chr22",
		"chrX", "chrY", "chrM", "chrMT", ".",
	} {
		tab[s] = s
	}
	return tab
}()

// oracleIntern is intern as it was: the map's string, or a copy.
func oracleIntern(b []byte) string {
	if s, ok := oracleInternTab[string(b)]; ok {
		return s
	}
	return string(b)
}

// oracleWords packs chromRank's answer into (Rank, Prefix) the way
// Key documents it.
func oracleWords(name string) (uint64, uint64) {
	rank, extra := chromRank(name)
	var prefix uint64
	for i := 0; i < len(extra) && i < 8; i++ {
		prefix |= uint64(extra[i]) << (56 - 8*i)
	}
	return uint64(rank), prefix
}

// chromNearMisses are names one byte or one case away from a table
// name, and a scaffold: each must fall through to the general path.
var chromNearMisses = []string{
	"chr0", "chr23", "chr01", "chr+1", "chr-1", "Chr1", "chrx", "chrM_",
	"chrMT", "chr", "", "chr1\x00", "chrUn_KI270302v1",
}

// checkChromName holds intern and chromWords (over a string and over
// bytes) to the oracle for one name.
func checkChromName(t *testing.T, name string) {
	t.Helper()
	b := []byte(name)
	if got, want := intern(b), oracleIntern(b); got != want {
		t.Fatalf("intern(%q) = %q, want %q", name, got, want)
	}
	wantRank, wantPrefix := oracleWords(name)
	if rank, prefix := chromWords(name); rank != wantRank || prefix != wantPrefix {
		t.Fatalf("chromWords(%q) = (%d, %#x), want (%d, %#x)", name, rank, prefix, wantRank, wantPrefix)
	}
	if rank, prefix := chromWords(b); rank != wantRank || prefix != wantPrefix {
		t.Fatalf("chromWords([]byte(%q)) = (%d, %#x), want (%d, %#x)", name, rank, prefix, wantRank, wantPrefix)
	}
	if _, inTab := oracleInternTab[name]; (chromIndex(b) >= 0) != inTab {
		t.Fatalf("chromIndex(%q) = %d, but the oracle map has it: %v", name, chromIndex(b), inTab)
	}
}

// TestChromTableMatchesGeneralPath: the byte-level table returns the
// map's string and chromRank's (Rank, Prefix) for every name it holds,
// shares its strings, and sends every other name, from the near misses
// to every "chr" name of one or two more bytes, down the general path.
func TestChromTableMatchesGeneralPath(t *testing.T) {
	if len(chromTab) != len(oracleInternTab) {
		t.Fatalf("chromTab has %d names, the oracle map %d", len(chromTab), len(oracleInternTab))
	}
	for i, e := range chromTab {
		if _, ok := oracleInternTab[e.name]; !ok {
			t.Fatalf("chromTab[%d] = %q is not in the oracle map", i, e.name)
		}
		if got := chromIndex(e.name); got != i {
			t.Fatalf("chromIndex(%q) = %d, want %d", e.name, got, i)
		}
		checkChromName(t, e.name)
		b := []byte(e.name)
		if n := testing.AllocsPerRun(10, func() { internSink = intern(b) }); n != 0 {
			t.Fatalf("intern(%q) allocates %v times, want 0", e.name, n)
		}
	}
	for _, name := range chromNearMisses {
		checkChromName(t, name)
	}
	for c := 0; c < 256; c++ {
		checkChromName(t, string([]byte{byte(c)}))
		checkChromName(t, "chr"+string([]byte{byte(c)}))
		for d := 0; d < 256; d++ {
			checkChromName(t, "chr"+string([]byte{byte(c), byte(d)}))
		}
	}
}

var (
	internSink string
	parseSink  Record
)

// TestParseLineAllocatesNothing: a line whose chromosome is in the
// table and whose name is "." parses with no allocation, whether its
// bytes are canonical or the comparing of the derived columns stops
// early; a beyond-table chromosome costs its one string.
func TestParseLineAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		line      string
		allocs    float64
		canonical bool
	}{
		{goodLine, 0, true},
		{otherLine, 0, true},
		{"chrMT\t5\t6\t.\t3\t-\t5\t6\t255,255,0\t3\t50", 0, true},
		{"chrUn_KI270302v1\t5\t6\t.\t3\t-\t5\t6\t255,255,0\t3\t50", 1, true},
		{"chr1\t5\t6\t.\t3\t-\t5\t7\t255,255,0\t3\t50", 0, false},
		{"chr1\t5\t6\t.\t3\t-\t5\t6\t255,0,0\t3\t50", 0, false},
		{"chr1\t+5\t6\t.\t3\t-\t5\t6\t255,255,0\t3\t50", 0, false},
		{"chr1\t5\t6\t.\t3\t-\t5\t6\t255,255,0\t03\t50", 0, false},
	} {
		line := []byte(tc.line)
		got := testing.AllocsPerRun(100, func() {
			var err error
			if parseSink, err = ParseLine(line); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.allocs {
			t.Errorf("ParseLine(%q): %v allocations, want %v", tc.line, got, tc.allocs)
		}
		canonical := false
		got = testing.AllocsPerRun(100, func() {
			var err error
			if parseSink, canonical, err = ParseLineCanonical(line); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.allocs || canonical != tc.canonical {
			t.Errorf("ParseLineCanonical(%q): %v allocations, canonical %v; want %v, %v",
				tc.line, got, canonical, tc.allocs, tc.canonical)
		}
	}
}

// TestBlankLineTestMatchesTrimSpace: a line is skipped as blank exactly
// when bytes.TrimSpace leaves nothing of it, whatever its first byte.
func TestBlankLineTestMatchesTrimSpace(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, rest := range []string{"", " ", "\t\r", "\u00a0", "\u0085", "x", "\xc2"} {
			line := append([]byte{byte(c)}, rest...)
			called := false
			err := record(line, 1, func(Record) error { called = true; return nil })
			var pe *ParseError
			skipped := err == nil && !called
			if !skipped && !errors.As(err, &pe) {
				t.Fatalf("record(%q) = %v, want a skip or a ParseError", line, err)
			}
			if blank := len(bytes.TrimSpace(line)) == 0; skipped != blank || IsBlank(line) != blank {
				t.Fatalf("record(%q) skipped = %v, IsBlank = %v, bytes.TrimSpace blank = %v",
					line, skipped, IsBlank(line), blank)
			}
		}
	}
	if err := record(nil, 1, func(Record) error { t.Fatal("called on an empty line"); return nil }); err != nil {
		t.Fatalf("record of an empty line: %v", err)
	}
	if !IsBlank(nil) {
		t.Fatal("IsBlank(nil) = false, want true")
	}
}
