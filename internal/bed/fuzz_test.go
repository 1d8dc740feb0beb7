package bed

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceParseLine is the pre-data-plane parser (bytes.Split +
// strconv on string conversions), kept verbatim as the oracle the
// zero-allocation ParseLine is fuzzed against and the baseline its
// benchmark is compared with.
func referenceParseLine(line []byte) (Record, error) {
	fields := bytes.Split(line, []byte{'\t'})
	if len(fields) != 11 {
		return Record{}, fmt.Errorf("want 11 fields, got %d", len(fields))
	}
	var r Record
	r.Chrom = string(fields[0])
	var err error
	if r.Start, err = strconv.ParseInt(string(fields[1]), 10, 64); err != nil {
		return Record{}, fmt.Errorf("start: %v", err)
	}
	if r.End, err = strconv.ParseInt(string(fields[2]), 10, 64); err != nil {
		return Record{}, fmt.Errorf("end: %v", err)
	}
	r.Name = string(fields[3])
	if r.Score, err = strconv.Atoi(string(fields[4])); err != nil {
		return Record{}, fmt.Errorf("score: %v", err)
	}
	if len(fields[5]) != 1 {
		return Record{}, fmt.Errorf("strand %q", fields[5])
	}
	r.Strand = fields[5][0]
	if r.Coverage, err = strconv.Atoi(string(fields[9])); err != nil {
		return Record{}, fmt.Errorf("coverage: %v", err)
	}
	if r.MethPct, err = strconv.Atoi(string(fields[10])); err != nil {
		return Record{}, fmt.Errorf("methylation: %v", err)
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// checkAgainstReference asserts both parsers accept/reject identically
// and agree on the parsed record.
func checkAgainstReference(t *testing.T, line []byte) {
	t.Helper()
	got, gotErr := ParseLine(line)
	want, wantErr := referenceParseLine(line)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("ParseLine(%q) err = %v, reference err = %v", line, gotErr, wantErr)
	}
	if gotErr == nil && got != want {
		t.Fatalf("ParseLine(%q) = %+v, reference = %+v", line, got, want)
	}
}

var trickyLines = []string{
	"chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92",
	"chrX\t0\t1\t.\t0\t.\t0\t1\t0,255,0\t0\t0",
	"chrUn_KI270752\t5\t6\tname\t3\t-\t5\t6\t255,255,0\t3\t50",
	"",           // empty line
	"chr1\t1\t2", // too few fields
	"chr1\t1\t2\t.\t1\t+\t1\t2\tc\t1\t1\textra",                              // too many fields
	"chr1\t1\t2\t.\t1\t+\t1\t2\tc\t1\t1\t",                                   // trailing tab
	"chr1\t+5\t9\t.\t1\t+\t5\t9\tc\t1\t1",                                    // signed start (strconv accepts)
	"chr1\t-5\t9\t.\t1\t+\t-5\t9\tc\t1\t1",                                   // negative start (parses, fails Validate)
	"chr1\t007\t009\t.\t1\t+\t7\t9\tc\t1\t1",                                 // leading zeros
	"chr1\t 5\t9\t.\t1\t+\t5\t9\tc\t1\t1",                                    // leading space
	"chr1\t5 \t9\t.\t1\t+\t5\t9\tc\t1\t1",                                    // trailing space
	"chr1\t\t9\t.\t1\t+\t5\t9\tc\t1\t1",                                      // empty integer
	"chr1\t5\t9\t.\t1\t++\t5\t9\tc\t1\t1",                                    // two-byte strand
	"chr1\t5\t9\t.\t1\t\t5\t9\tc\t1\t1",                                      // empty strand
	"chr1\t5\t9\t.\t1\tx\t5\t9\tc\t1\t1",                                     // bad strand (fails Validate)
	"chr1\t9223372036854775807\t9223372036854775807\t.\t1\t+\t0\t0\tc\t1\t1", // max int64, End==Start
	"chr1\t1\t9223372036854775808\t.\t1\t+\t0\t0\tc\t1\t1",                   // overflow end
	"chr1\t1\t-9223372036854775808\t.\t1\t+\t0\t0\tc\t1\t1",                  // min int64
	"chr1\t1\t-9223372036854775809\t.\t1\t+\t0\t0\tc\t1\t1",                  // underflow
	"chr1\t1_0\t20\t.\t1\t+\t0\t0\tc\t1\t1",                                  // underscore digits (base-10 rejects)
	"chr1\t１\t2\t.\t1\t+\t0\t0\tc\t1\t1",                                     // full-width digit
	"chr1\t0x10\t20\t.\t1\t+\t0\t0\tc\t1\t1",                                 // hex
	"chr1\t5\t9\t.\t1001\t+\t5\t9\tc\t1\t1",                                  // score over 1000 (fails Validate)
	"chr1\t5\t9\t.\t1\t+\t5\t9\tc\t1\t101",                                   // meth over 100 (fails Validate)
	"chr1\t5\t9\t.\t1\t+\tjunk\tmore\tc\t1\t1",                               // derived fields ignored
	"\t5\t9\t.\t1\t+\t5\t9\tc\t1\t1",                                         // empty chrom (fails Validate)
}

// TestParseLineMatchesReference pins the tricky cases without needing
// -fuzz.
func TestParseLineMatchesReference(t *testing.T) {
	for _, s := range trickyLines {
		checkAgainstReference(t, []byte(s))
	}
	// And every generated line round-trips through both identically.
	for _, r := range Generate(GenConfig{Records: 500, Seed: 31}) {
		line := AppendTSV(nil, r)
		checkAgainstReference(t, line[:len(line)-1])
	}
}

// FuzzParseLine differentially fuzzes the zero-allocation parser
// against the legacy reference: both must accept/reject exactly the
// same lines and agree on every parsed record.
func FuzzParseLine(f *testing.F) {
	for _, s := range trickyLines {
		f.Add([]byte(s))
	}
	for _, r := range Generate(GenConfig{Records: 20, Seed: 32}) {
		line := AppendTSV(nil, r)
		f.Add(line[:len(line)-1])
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := ParseLine(line)
		want, wantErr := referenceParseLine(line)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ParseLine(%q) err = %v, reference err = %v", line, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("ParseLine(%q) = %+v, reference = %+v", line, got, want)
		}
	})
}

// nonCanonicalLines are lines ParseLine accepts that AppendTSV would
// not write as they are, each a near miss of a canonical one, plus a
// 19-digit integer (canonical, read past scanInt's fast path) and a
// CRLF line.
var nonCanonicalLines = []string{
	"chr1\t+5\t9\t.\t1\t+\t5\t9\t0,255,0\t1\t1",    // signed start
	"chr1\t5\t9\t.\t+1\t+\t5\t9\t0,255,0\t1\t1",    // signed score
	"chr1\t5\t9\t.\t1\t+\t5\t9\t0,255,0\t-0\t1",    // coverage "-0"
	"chr1\t007\t9\t.\t1\t+\t007\t9\t0,255,0\t1\t1", // leading zeros, repeated by thick
	"chr1\t5\t9\t.\t1\t+\t5\t9\t0,255,0\t1\t01",    // leading zero in methylation
	"chr1\t0\t9\t.\t00\t+\t0\t9\t0,255,0\t0\t0",    // "00" score
	"chr1\t5\t9\t.\t1\t+\t5\t8\t0,255,0\t1\t1",     // thickEnd differs
	"chr1\t5\t9\t.\t1\t+\t6\t9\t0,255,0\t1\t1",     // thickStart differs
	"chr1\t5\t9\t.\t1\t+\t5\t95\t0,255,0\t1\t1",    // thickEnd longer
	"chr1\t5\t9\t.\t1\t+\t5\t9\t0,255,0\t1\t50",    // itemRgb of another level
	"chr1\t5\t9\t.\t1\t+\t5\t9\t0,255,0,\t1\t1",    // itemRgb one byte long
	"chr1\t5\t9\t.\t1\t+\t5\t9\t\t1\t1",            // empty itemRgb
	"chr1\t5\t9\t.\t1\t+\t5\t9\t255,0,0\t1\t1",     // red at 1%
	"chr1\t5\t9\t.\t1\t+\t5\t9\t255,255,0\t1\t67",  // yellow at 67%
	"chr1\t5\t1000000000000000000\t.\t1\t+\t5\t1000000000000000000\t0,255,0\t1\t1",
	"chr1\t5\t0000000000000000009\t.\t1\t+\t5\t0000000000000000009\t0,255,0\t1\t1",
	"chr1\t5\t9\t.\t1\t+\t5\t9\t0,255,0\t1\t1\r",
	"chr1\r\t5\t9\t.\t1\t+\t5\t9\t0,255,0\t1\t1",
}

// checkCanonical asserts that a line ParseLineCanonical accepts is
// called canonical exactly when it plus '\n' is what AppendTSV writes
// for its record, and that ParseLine reads it the same way.
func checkCanonical(t *testing.T, line []byte) {
	t.Helper()
	r, canonical, err := ParseLineCanonical(line)
	if r2, err2 := ParseLine(line); r2 != r || fmt.Sprint(err2) != fmt.Sprint(err) {
		t.Fatalf("ParseLine(%q) = %+v, %v; ParseLineCanonical = %+v, %v", line, r2, err2, r, err)
	}
	if err != nil {
		return
	}
	out := AppendTSV(nil, r)
	if same := bytes.Equal(out, append(line[:len(line):len(line)], '\n')); canonical != same {
		t.Fatalf("ParseLineCanonical(%q): canonical %v, but AppendTSV writes %q", line, canonical, out)
	}
}

// TestParseLineCanonicalMatchesAppendTSV checks the seeds without
// -fuzz: every line above is accepted and not canonical but the
// 19-digit and the CR-in-chrom ones, and every generated line is.
func TestParseLineCanonicalMatchesAppendTSV(t *testing.T) {
	for _, s := range slices.Concat(trickyLines, nonCanonicalLines) {
		checkCanonical(t, []byte(s))
	}
	var canonical []string
	for _, s := range nonCanonicalLines {
		_, c, err := ParseLineCanonical([]byte(s))
		if err != nil && !strings.HasSuffix(s, "\r") {
			t.Errorf("ParseLineCanonical(%q): %v", s, err)
		}
		if c {
			canonical = append(canonical, s)
		}
	}
	if len(canonical) != 2 || !strings.Contains(canonical[0], "1000000000000000000") || !strings.HasPrefix(canonical[1], "chr1\r") {
		t.Errorf("canonical near misses: %q, want the 19-digit and the CR-in-chrom lines", canonical)
	}
	for _, r := range Generate(GenConfig{Records: 2000, Seed: 35}) {
		line := AppendTSV(nil, r)
		if _, canonical, err := ParseLineCanonical(line[:len(line)-1]); err != nil || !canonical {
			t.Fatalf("ParseLineCanonical(%q) = canonical %v, %v; want true, nil", line, canonical, err)
		}
	}
}

// FuzzParseLineCanonical holds the canonical verdict, which lets the
// shuffle copy a line in place of re-writing it, to AppendTSV's bytes
// on every line ParseLine accepts.
func FuzzParseLineCanonical(f *testing.F) {
	for _, s := range slices.Concat(trickyLines, nonCanonicalLines) {
		f.Add([]byte(s))
	}
	for _, r := range Generate(GenConfig{Records: 20, Seed: 36}) {
		line := AppendTSV(nil, r)
		f.Add(line[:len(line)-1])
	}
	f.Fuzz(checkCanonical)
}

const (
	goodLine  = "chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92"
	otherLine = "chrX\t5\t6\t.\t3\t-\t5\t6\t0,255,0\t3\t0"
)

// unmarshalCases are whole buffers on which the in-memory parse loop
// could drift from the bufio.Scanner one: line endings, blank lines,
// the unterminated last line, error line numbers and the line limit.
func unmarshalCases() [][]byte {
	const good, other = goodLine, otherLine
	cases := []string{
		"",
		"\n",
		"\r\n",
		"\r",
		"\n\n\n",
		good,
		good + "\n",
		good + "\r\n" + other + "\r\n",
		good + "\r\n" + other + "\r",
		good + "\r\r\n",       // only one '\r' is dropped
		good + "\n\r" + other, // a '\r' at a line's start is data
		good + "\n\n" + other + "\n",
		good + "\n \t \n" + other + "\n",
		good + "\n\u00a0\u0085\n" + other + "\n", // whitespace-only beyond ASCII
		good + "\n" + other + "\n\n",
		good + "\n" + other + "\n   ",
		good + "\n" + other + "\n\r",
		"\n\n" + good + "\n" + other,
		good + "\n\nchr1\t1\t2\n" + other + "\n", // error on line 3, after a skipped one
		good + "\x00\n",
	}
	// A bad integer in each of the 11 positions, on line 2 of 3.
	fields := strings.Split(good, "\t")
	for i := range fields {
		bad := append([]string(nil), fields...)
		bad[i] = "1x"
		cases = append(cases, good+"\n"+strings.Join(bad, "\t")+"\n"+other+"\n")
	}
	out := make([][]byte, 0, len(cases)+4)
	for _, c := range cases {
		out = append(out, []byte(c))
	}
	// The line limit: maxLineBytes-1 bytes of line still scan (and fail
	// as a record), maxLineBytes do not, terminated or not; an earlier
	// bad line still wins.
	return append(out,
		longLine(good+"\n", maxLineBytes+1, ""),
		longLine(good+"\n", maxLineBytes, "\n"),
		longLine(good+"\n", maxLineBytes-1, "\n"),
		longLine("bad\n", maxLineBytes+1, ""),
	)
}

// longLine is prefix, then a line of n bytes, then term.
func longLine(prefix string, n int, term string) []byte {
	return append(append([]byte(prefix), bytes.Repeat([]byte{'a'}, n)...), term...)
}

// clip shortens a buffer for a failure message.
func clip(data []byte) string {
	if len(data) > 200 {
		return fmt.Sprintf("%q... (%d bytes)", data[:200], len(data))
	}
	return fmt.Sprintf("%q", data)
}

// checkUnmarshalMatchesParse asserts the in-memory parser and the
// io.Reader one return equal records, or errors with the same text (so
// the same line number) and the same bufio.ErrTooLong identity.
func checkUnmarshalMatchesParse(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := Unmarshal(data)
	want, wantErr := Parse(bytes.NewReader(data))
	if (gotErr == nil) != (wantErr == nil) ||
		gotErr != nil && (gotErr.Error() != wantErr.Error() ||
			errors.Is(gotErr, bufio.ErrTooLong) != errors.Is(wantErr, bufio.ErrTooLong)) {
		t.Fatalf("Unmarshal(%s) err = %v, Parse err = %v", clip(data), gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Unmarshal(%s) = %d records, Parse = %d records", clip(data), len(got), len(want))
	}
}

// TestUnmarshalMatchesParse pins the seed cases without needing -fuzz,
// and spells out the ones both parsers could get wrong together.
func TestUnmarshalMatchesParse(t *testing.T) {
	for _, data := range unmarshalCases() {
		checkUnmarshalMatchesParse(t, data)
	}
	checkUnmarshalMatchesParse(t, Marshal(Generate(GenConfig{Records: 5000, Seed: 33})))

	const good = goodLine + "\n"
	for _, tc := range []struct {
		data string
		recs int
	}{
		{"", 0}, {"\n", 0}, {good, 1},
		{strings.ReplaceAll(good+good, "\n", "\r\n"), 2},
		{good + "\n \t \n" + good + "\n\n", 2},
		{strings.TrimSuffix(good+good, "\n"), 2},
	} {
		recs, err := Unmarshal([]byte(tc.data))
		if err != nil || len(recs) != tc.recs {
			t.Errorf("Unmarshal(%q) = %d records, %v; want %d", tc.data, len(recs), err, tc.recs)
		}
	}

	var pe *ParseError
	if _, err := Unmarshal([]byte(good + "\n \n" + "chr1\t1\t2\n")); !errors.As(err, &pe) || pe.Line != 4 {
		t.Errorf("blank lines are counted: err = %v, want a ParseError on line 4", err)
	}
	for _, data := range [][]byte{longLine(good, maxLineBytes+1, ""), longLine(good, maxLineBytes, "\n")} {
		if _, err := Unmarshal(data); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("a line of at least %d bytes: err = %v, want bufio.ErrTooLong", maxLineBytes, err)
		}
	}
	if _, err := Unmarshal(longLine(good, maxLineBytes-1, "\n")); !errors.As(err, &pe) || pe.Line != 2 {
		t.Errorf("a %d-byte line: err = %v, want a ParseError on line 2", maxLineBytes-1, err)
	}
	if _, err := Unmarshal(longLine("bad\n", maxLineBytes+1, "")); !errors.As(err, &pe) || pe.Line != 1 {
		t.Errorf("bad line before the long one: err = %v, want a ParseError on line 1", err)
	}
}

// TestEachRecordStopsAtTheCallersError: the loop hands records over in
// line order and returns the callback's error as it is, not as a line's
// ParseError.
func TestEachRecordStopsAtTheCallersError(t *testing.T) {
	stop := errors.New("stop")
	var seen []Record
	err := EachRecord([]byte(goodLine+"\n\n"+otherLine+"\nnot a record\n"), func(r Record) error {
		if seen = append(seen, r); len(seen) == 2 {
			return stop
		}
		return nil
	})
	if err != stop || len(seen) != 2 || seen[0].Chrom != "chr1" || seen[1].Chrom != "chrX" {
		t.Fatalf("EachRecord = %v after %d records, want the callback's error after chr1 and chrX", err, len(seen))
	}
}

// FuzzUnmarshalMatchesParse differentially fuzzes the in-memory parse
// loop against Parse over a bufio.Scanner: for any buffer, equal
// records or the same error.
func FuzzUnmarshalMatchesParse(f *testing.F) {
	for _, data := range unmarshalCases() {
		f.Add(data)
	}
	f.Add(Marshal(Generate(GenConfig{Records: 20, Seed: 34})))
	f.Fuzz(checkUnmarshalMatchesParse)
}

// FuzzKeyOfLine holds the merge side's three-column key to the full
// parse: whenever ParseLine accepts a line, KeyOfLine reads the same
// key from it that KeyOf computes from the record. The chromosome
// column and the rest of the line are fuzzed apart, seeded with every
// table name, the near misses and a scaffold.
func FuzzKeyOfLine(f *testing.F) {
	tails := []string{
		"\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92",
		"\t+5\t009\tname\t1\t-\t5\t9\tc\t1\t1",
		"\t0\t9223372036854775807\t.\t0\t.\t0\t0\t0,255,0\t0\t0",
	}
	var names []string
	for _, e := range chromTab {
		names = append(names, e.name)
	}
	for _, name := range append(names, chromNearMisses...) {
		for _, tail := range tails {
			f.Add([]byte(name), []byte(tail))
		}
	}
	f.Fuzz(func(t *testing.T, chrom, tail []byte) {
		line := append(append([]byte(nil), chrom...), tail...)
		r, err := ParseLine(line)
		if err != nil {
			return
		}
		key, err := KeyOfLine(line)
		if err != nil {
			t.Fatalf("KeyOfLine(%q): %v, but ParseLine accepts it", line, err)
		}
		if want := KeyOf(r); key != want {
			t.Fatalf("KeyOfLine(%q) = %+v, KeyOf(ParseLine) = %+v", line, key, want)
		}
	})
}
