package bed

import (
	"bytes"
	"fmt"
	"strconv"
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
