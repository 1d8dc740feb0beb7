package bed

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// itemRGB returns the ENCODE display color for a methylation level.
func itemRGB(methPct int) string {
	switch {
	case methPct >= 67:
		return "255,0,0" // strongly methylated: red
	case methPct >= 34:
		return "255,255,0" // intermediate: yellow
	default:
		return "0,255,0" // unmethylated: green
	}
}

// AppendTSV appends the 11-column bedMethyl TSV encoding of r to dst.
func AppendTSV(dst []byte, r Record) []byte {
	dst = append(dst, r.Chrom...)
	dst = append(dst, '\t')
	from := len(dst)
	dst = strconv.AppendInt(dst, r.Start, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.End, 10)
	to := len(dst)
	dst = append(dst, '\t')
	dst = append(dst, r.Name...)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(r.Score), 10)
	dst = append(dst, '\t')
	dst = append(dst, r.Strand)
	dst = append(dst, '\t')
	dst = append(dst, dst[from:to]...) // thickStart and thickEnd: "start\tend" again
	dst = append(dst, '\t')
	dst = append(dst, itemRGB(r.MethPct)...)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(r.Coverage), 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(r.MethPct), 10)
	dst = append(dst, '\n')
	return dst
}

// marshalBytesPerRecord is what Marshal reserves per record so that it
// allocates once: Generate's lines average 58 bytes (29 MB for 500k
// records). Longer lines (ENCODE's scaffold names) regrow by append.
const marshalBytesPerRecord = 64

// Marshal renders records as bedMethyl TSV.
func Marshal(recs []Record) []byte {
	out := make([]byte, 0, len(recs)*marshalBytesPerRecord)
	for _, r := range recs {
		out = AppendTSV(out, r)
	}
	return out
}

// Write streams records to w in TSV form.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i, r := range recs {
		line = AppendTSV(line[:0], r)
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("bed: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ParseError reports a malformed line with its 1-based line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("bed: line %d: %s", e.Line, e.Msg)
}

var (
	errKeyFields = errors.New("bed: line has fewer than 3 fields")
	errKeyStart  = errors.New("bed: bad start integer")
	errKeyEnd    = errors.New("bed: bad end integer")
)

// chromEntry is one name of chromTab with the key words chromRank
// gives it.
type chromEntry struct {
	name         string
	rank, prefix uint64
}

// chromTab holds the names the hot paths see on virtually every line:
// the "." feature name at 0, then the hg38 chromosomes, each at its
// rank (chr1..chr22, chrX 23, chrY 24, chrM 25), and chrMT at 26.
// chromIndex finds a name by its bytes, so ParseLine allocates nothing
// for these names and KeyOfLine builds no string; every other name
// (chr01, chr+1, chr300, chrUn_*) falls through to string(b) and
// chromRank.
var chromTab = func() (tab [27]chromEntry) {
	names := [27]string{".",
		"chr1", "chr2", "chr3", "chr4", "chr5", "chr6", "chr7", "chr8",
		"chr9", "chr10", "chr11", "chr12", "chr13", "chr14", "chr15",
		"chr16", "chr17", "chr18", "chr19", "chr20", "chr21", "chr22",
		"chrX", "chrY", "chrM", "chrMT",
	}
	for i, s := range names {
		rank, prefix := rankWords(s)
		tab[i] = chromEntry{name: s, rank: rank, prefix: prefix}
	}
	return tab
}()

// chromIndex returns the index of name in chromTab, or -1 when it is
// not there, reading the bytes with no map probe.
func chromIndex[T ChromName](name T) int {
	if len(name) < 4 {
		if len(name) == 1 && name[0] == '.' {
			return 0
		}
		return -1
	}
	if name[0] != 'c' || name[1] != 'h' || name[2] != 'r' {
		return -1
	}
	c := name[3]
	switch len(name) {
	case 4:
		switch {
		case '1' <= c && c <= '9':
			return int(c - '0')
		case c == 'X':
			return 23
		case c == 'Y':
			return 24
		case c == 'M':
			return 25
		}
	case 5:
		d := name[4]
		if c == 'M' && d == 'T' {
			return 26
		}
		if (c == '1' || c == '2') && '0' <= d && d <= '9' {
			if n := int(c-'0')*10 + int(d-'0'); n <= 22 {
				return n
			}
		}
	}
	return -1
}

// intern returns chromTab's shared string for the names it holds,
// falling back to a fresh allocation for any other.
func intern(b []byte) string {
	if i := chromIndex(b); i >= 0 {
		return chromTab[i].name
	}
	return string(b)
}

// parseInt parses a base-10 signed integer with the same accept set as
// strconv.ParseInt(string(b), 10, 64), but on a byte slice or string
// directly and without ever allocating — strconv's error values are
// heap allocations, which matters in chromRank, where probing "X" for
// a number is the expected case, not the error case.
func parseInt[T []byte | string](b T) (int64, bool) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, false
	}
	limit := uint64(1)<<63 - 1
	if neg {
		limit = uint64(1) << 63
	}
	var un uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if un > (limit-uint64(d))/10 {
			return 0, false
		}
		un = un*10 + uint64(d)
	}
	if neg {
		return -int64(un), true
	}
	return int64(un), true
}

// fieldEnd is the index of the tab that ends the field starting at
// line[i], or len(line) for the last field. Columns hold a few bytes,
// where a byte loop beats a call to bytes.IndexByte.
func fieldEnd(line []byte, i int) int {
	for i < len(line) && line[i] != '\t' {
		i++
	}
	return i
}

// scanInt reads the integer field starting at line[i] and returns it
// with the index of the byte after the field (its tab, or len(line)),
// and whether the field is written as strconv.AppendInt writes its
// value: no sign, and no leading zero unless the field is "0". Up to 18
// digits cannot overflow an int64, so they are summed as they are read;
// a sign, a non-digit or a longer field hands that one field to
// parseInt, which decides and reports exactly as it always has.
func scanInt(line []byte, i int) (n int64, end int, ok, canonical bool) {
	start := i
	var v uint64
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	if digits := i - start; digits > 0 && digits <= 18 && (i == len(line) || line[i] == '\t') {
		return int64(v), i, true, line[start] != '0' || digits == 1
	}
	end = fieldEnd(line, start)
	n, ok = parseInt(line[start:end])
	return n, end, ok, ok && '1' <= line[start] && line[start] <= '9'
}

// lineError reports a line the scan stopped on, in the order the checks
// have always run: a wrong field count first (a column that ends the
// line early is one; so is field "", which only such a column passes),
// then the first bad column (field is "strand" or an integer column's
// name, val its bytes).
func lineError(line []byte, field string, val []byte) error {
	if n := bytes.Count(line, []byte{'\t'}) + 1; n != 11 || field == "" {
		return fmt.Errorf("want 11 fields, got %d", n)
	}
	if field == "strand" {
		return fmt.Errorf("strand %q", val)
	}
	return fmt.Errorf("%s: bad integer %q", field, val)
}

// ParseLine parses one TSV line (without trailing newline); it is
// ParseLineCanonical without the verdict on the line's bytes.
func ParseLine(line []byte) (Record, error) {
	r, _, err := ParseLineCanonical(line)
	return r, err
}

// ParseLineCanonical parses one TSV line (without trailing newline) in
// a single left-to-right scan, allocation-free on the happy path:
// integers are summed as their digits are read, and common chrom/name
// strings are interned. A column that cannot be read, or that ends the
// line early, ends the scan (lineError). The result is named so that
// the record is built where it is returned.
//
// canonical reports whether line plus '\n' is exactly what AppendTSV
// writes for r: no integer has a sign or a leading zero, thickStart and
// thickEnd are byte for byte "start\tend", and itemRgb is
// itemRGB(MethPct). It costs only comparisons.
func ParseLineCanonical(line []byte) (r Record, canonical bool, err error) {
	var v int64
	var ok, c bool
	i := fieldEnd(line, 0)
	if i == len(line) {
		return Record{}, false, lineError(line, "", nil)
	}
	r.Chrom = intern(line[:i])
	s := i + 1
	if r.Start, i, ok, canonical = scanInt(line, s); !ok || i == len(line) {
		return Record{}, false, lineError(line, "start", line[s:i])
	}
	span := s // "start\tend", which thickStart and thickEnd repeat
	s = i + 1
	if r.End, i, ok, c = scanInt(line, s); !ok || i == len(line) {
		return Record{}, false, lineError(line, "end", line[s:i])
	}
	canonical = canonical && c
	thick := line[span:i]
	s = i + 1
	if i = fieldEnd(line, s); i == len(line) {
		return Record{}, false, lineError(line, "", nil)
	}
	r.Name = intern(line[s:i])
	s = i + 1
	if v, i, ok, c = scanInt(line, s); !ok || i == len(line) {
		return Record{}, false, lineError(line, "score", line[s:i])
	}
	r.Score = int(v)
	canonical = canonical && c
	s = i + 1
	if i = fieldEnd(line, s); i-s != 1 || i == len(line) {
		return Record{}, false, lineError(line, "strand", line[s:i])
	}
	r.Strand = line[s]
	// The derived columns: thickStart and thickEnd are compared with
	// "start\tend" and only itemRgb is walked; once the line is not
	// canonical, all three are walked to their third tab.
	var itemRgb []byte
	if t := i + 1 + len(thick); canonical && t < len(line) && line[t] == '\t' && bytes.Equal(line[i+1:t], thick) {
		i = fieldEnd(line, t+1)
		itemRgb = line[t+1 : i]
	} else {
		canonical = false
		for n := 0; n < 3 && i < len(line); n++ {
			i = fieldEnd(line, i+1)
		}
	}
	if i == len(line) {
		return Record{}, false, lineError(line, "", nil)
	}
	s = i + 1
	if v, i, ok, c = scanInt(line, s); !ok || i == len(line) {
		return Record{}, false, lineError(line, "coverage", line[s:i])
	}
	r.Coverage = int(v)
	canonical = canonical && c
	s = i + 1
	if v, i, ok, c = scanInt(line, s); !ok || i != len(line) {
		return Record{}, false, lineError(line, "methylation", line[s:i])
	}
	r.MethPct = int(v)
	if err = r.Validate(); err != nil {
		return Record{}, false, err
	}
	canonical = canonical && c && string(itemRgb) == itemRGB(r.MethPct)
	return r, canonical, nil
}

// maxLineBytes is the longest line Parse and Unmarshal accept; a longer
// one is an error wrapping bufio.ErrTooLong.
const maxLineBytes = 4 * 1024 * 1024

// minLineBytes is the shortest line ParseLine accepts: ten tabs, and
// one byte each for chrom, start, end, score, strand, coverage and
// methylation.
const minLineBytes = 17

// asciiSpace is the ASCII white space bytes.TrimSpace trims.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// IsBlank reports whether line is empty or white space alone, so that
// bytes.TrimSpace would leave nothing of it: the lines every reader of
// bedMethyl bytes skips.
func IsBlank(line []byte) bool {
	// Only a line that starts with white space can be blank.
	return len(line) == 0 || (line[0] >= utf8.RuneSelf || asciiSpace[line[0]]) && len(bytes.TrimSpace(line)) == 0
}

// record hands fn the record on line lineNo (without its newline). Blank
// and whitespace-only lines are skipped; one that does not parse is a
// *ParseError.
func record(line []byte, lineNo int, fn func(Record) error) error {
	if IsBlank(line) {
		return nil
	}
	rec, err := ParseLine(line)
	if err != nil {
		return &ParseError{Line: lineNo, Msg: err.Error()}
	}
	return fn(rec)
}

// Parse reads a whole bedMethyl stream. Blank lines are skipped.
func Parse(r io.Reader) ([]Record, error) {
	var recs []Record
	add := func(rec Record) error { recs = append(recs, rec); return nil }
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if err := record(sc.Bytes(), lineNo, add); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bed: scan: %w", err)
	}
	return recs, nil
}

// EachLine calls fn with each line of an in-memory TSV buffer and its
// 1-based number, walking it in place and splitting it as Parse's
// scanner does: lines end at '\n', one trailing '\r' is dropped, and the
// last line needs no newline. Blank lines are handed over too (IsBlank
// tells them). A line of maxLineBytes or more stops it with an error
// wrapping bufio.ErrTooLong; an error from fn stops it and is returned
// as it is.
func EachLine(data []byte, fn func(line []byte, lineNo int) error) error {
	for lineNo := 1; len(data) > 0; lineNo++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) >= maxLineBytes {
			return fmt.Errorf("bed: scan: %w", bufio.ErrTooLong)
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if err := fn(line, lineNo); err != nil {
			return err
		}
	}
	return nil
}

// EachRecord calls fn with the record on each line of an in-memory TSV
// buffer (EachLine), and accepts and rejects exactly what Parse does on
// the same bytes. An error from fn stops it and is returned as it is.
func EachRecord(data []byte, fn func(Record) error) error {
	return EachLine(data, func(line []byte, lineNo int) error { return record(line, lineNo, fn) })
}

// Unmarshal parses records from an in-memory TSV buffer (EachRecord),
// allocating the result once: the line count bounds the record count, and
// so does the shortest valid line.
func Unmarshal(data []byte) ([]Record, error) {
	recs := make([]Record, 0, min(bytes.Count(data, []byte{'\n'})+1, (len(data)+1)/(minLineBytes+1)))
	if err := EachRecord(data, func(rec Record) error { recs = append(recs, rec); return nil }); err != nil {
		return nil, err
	}
	return recs, nil
}
