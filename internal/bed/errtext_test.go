package bed

import (
	"strings"
	"testing"
)

// parseLineErrText is the exact text ParseLine reports for each line
// ("" for a line it accepts): every line of trickyLines, in order, then
// a line one field short and one long, a bad integer in each of the
// eleven fields, lone signs, and integers on both sides of 18 and 19
// digits. FuzzParseLine compares only the verdict and the record with
// referenceParseLine, so a parser that named the wrong field would pass
// it; these strings reach users through ParseError and the encode
// stage's parse errors. Each line is also held to the oracle's verdict.
var parseLineErrText = []struct{ line, err string }{
	{"chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92", ""},
	{"chrX\t0\t1\t.\t0\t.\t0\t1\t0,255,0\t0\t0", ""},
	{"chrUn_KI270752\t5\t6\tname\t3\t-\t5\t6\t255,255,0\t3\t50", ""},
	{"", "want 11 fields, got 1"},
	{"chr1\t1\t2", "want 11 fields, got 3"},
	{"chr1\t1\t2\t.\t1\t+\t1\t2\tc\t1\t1\textra", "want 11 fields, got 12"},
	{"chr1\t1\t2\t.\t1\t+\t1\t2\tc\t1\t1\t", "want 11 fields, got 12"},
	{"chr1\t+5\t9\t.\t1\t+\t5\t9\tc\t1\t1", ""},
	{"chr1\t-5\t9\t.\t1\t+\t-5\t9\tc\t1\t1", "bed: bad interval [-5, 9)"},
	{"chr1\t007\t009\t.\t1\t+\t7\t9\tc\t1\t1", ""},
	{"chr1\t 5\t9\t.\t1\t+\t5\t9\tc\t1\t1", `start: bad integer " 5"`},
	{"chr1\t5 \t9\t.\t1\t+\t5\t9\tc\t1\t1", `start: bad integer "5 "`},
	{"chr1\t\t9\t.\t1\t+\t5\t9\tc\t1\t1", `start: bad integer ""`},
	{"chr1\t5\t9\t.\t1\t++\t5\t9\tc\t1\t1", `strand "++"`},
	{"chr1\t5\t9\t.\t1\t\t5\t9\tc\t1\t1", `strand ""`},
	{"chr1\t5\t9\t.\t1\tx\t5\t9\tc\t1\t1", `bed: bad strand "x"`},
	{"chr1\t9223372036854775807\t9223372036854775807\t.\t1\t+\t0\t0\tc\t1\t1", "bed: bad interval [9223372036854775807, 9223372036854775807)"},
	{"chr1\t1\t9223372036854775808\t.\t1\t+\t0\t0\tc\t1\t1", `end: bad integer "9223372036854775808"`},
	{"chr1\t1\t-9223372036854775808\t.\t1\t+\t0\t0\tc\t1\t1", "bed: bad interval [1, -9223372036854775808)"},
	{"chr1\t1\t-9223372036854775809\t.\t1\t+\t0\t0\tc\t1\t1", `end: bad integer "-9223372036854775809"`},
	{"chr1\t1_0\t20\t.\t1\t+\t0\t0\tc\t1\t1", `start: bad integer "1_0"`},
	{"chr1\t１\t2\t.\t1\t+\t0\t0\tc\t1\t1", `start: bad integer "１"`},
	{"chr1\t0x10\t20\t.\t1\t+\t0\t0\tc\t1\t1", `start: bad integer "0x10"`},
	{"chr1\t5\t9\t.\t1001\t+\t5\t9\tc\t1\t1", "bed: score 1001 out of [0, 1000]"},
	{"chr1\t5\t9\t.\t1\t+\t5\t9\tc\t1\t101", "bed: methylation 101% out of [0, 100]"},
	{"chr1\t5\t9\t.\t1\t+\tjunk\tmore\tc\t1\t1", ""},
	{"\t5\t9\t.\t1\t+\t5\t9\tc\t1\t1", "bed: empty chrom"},
	{"chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14", "want 11 fields, got 10"},
	{"chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92\t7", "want 11 fields, got 12"},
	{"1x\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92", ""},
	{"chr1\t1x\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92", `start: bad integer "1x"`},
	{"chr1\t10468\t1x\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92", `end: bad integer "1x"`},
	{"chr1\t10468\t10469\t1x\t14\t+\t10468\t10469\t255,0,0\t14\t92", ""},
	{"chr1\t10468\t10469\t.\t1x\t+\t10468\t10469\t255,0,0\t14\t92", `score: bad integer "1x"`},
	{"chr1\t10468\t10469\t.\t14\t1x\t10468\t10469\t255,0,0\t14\t92", `strand "1x"`},
	{"chr1\t10468\t10469\t.\t14\t+\t1x\t10469\t255,0,0\t14\t92", ""},
	{"chr1\t10468\t10469\t.\t14\t+\t10468\t1x\t255,0,0\t14\t92", ""},
	{"chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t1x\t14\t92", ""},
	{"chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t1x\t92", `coverage: bad integer "1x"`},
	{"chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t1x", `methylation: bad integer "1x"`},
	{"chr1\t+\t9\t.\t1\t+\t5\t9\tc\t1\t1", `start: bad integer "+"`},
	{"chr1\t5\t9\t.\t1\t+\t5\t9\tc\t-\t1", `coverage: bad integer "-"`},
	{"chr1\t5\t9\t.\t1\t+\t5\t9\tc\t-1\t1", "bed: negative coverage -1"},
	{"chr1\t5\t9\t.\t1\t+\t5\t9\tc\t1\t-0", ""},
	{"chr1\t1000000000000000000\t1000000000000000001\t.\t1\t+\t5\t9\tc\t1\t1", ""},
	{"chr1\t00000000000000000005\t000000000000000000009\t.\t1\t+\t5\t9\tc\t1\t1", ""},
	{"chr1\t5\t9\t.\t99999999999999999999\t+\t5\t9\tc\t1\t1", `score: bad integer "99999999999999999999"`},
	{"chr1\t5\t9\t.\t9223372036854775807\t+\t5\t9\tc\t1\t1", "bed: score 9223372036854775807 out of [0, 1000]"},
	{"chr1\t5\t9\t.\t1\t+\t5\t9\tc\t1\t1000000000000000000x", `methylation: bad integer "1000000000000000000x"`},
	{"chr1\t5\t9\t.\t1\t+\t5\t9\tc\t1\t1\r", `methylation: bad integer "1\r"`},
	{"chr1\t5\t9\t.\t1\t+\t5\t9\tc\t-9223372036854775808\t1", "bed: negative coverage -9223372036854775808"},
	{"chr1\t5\t9\t.\t1\t+\t5\t9\tc\t" + strings.Repeat("9", 40) + "\t1", `coverage: bad integer "` + strings.Repeat("9", 40) + `"`},
}

func TestParseLineErrorText(t *testing.T) {
	for i, line := range trickyLines {
		if i >= len(parseLineErrText) || parseLineErrText[i].line != line {
			t.Fatalf("trickyLines[%d] = %q has no pinned text at the same index", i, line)
		}
	}
	for _, tc := range parseLineErrText {
		checkAgainstReference(t, []byte(tc.line))
		got := ""
		if _, err := ParseLine([]byte(tc.line)); err != nil {
			got = err.Error()
		}
		if got != tc.err {
			t.Errorf("ParseLine(%q) error = %q, want %q", tc.line, got, tc.err)
		}
	}
}
