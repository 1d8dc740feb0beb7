package bed

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
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
	dst = strconv.AppendInt(dst, r.Start, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.End, 10)
	dst = append(dst, '\t')
	dst = append(dst, r.Name...)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(r.Score), 10)
	dst = append(dst, '\t')
	dst = append(dst, r.Strand)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.Start, 10) // thickStart
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.End, 10) // thickEnd
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

// internTab maps the strings the hot parse path sees on virtually
// every line — hg38 chromosome names and the "." feature name — to
// shared instances, so ParseLine allocates nothing for them. The
// map[string]x lookup with a string([]byte) key compiles to an
// allocation-free probe.
var internTab = func() map[string]string {
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

// intern returns a shared string for common field values, falling back
// to a fresh allocation for uncommon ones.
func intern(b []byte) string {
	if s, ok := internTab[string(b)]; ok {
		return s
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

// ParseLine parses one TSV line (without trailing newline). The happy
// path is allocation-free: fields are located with a single tab scan
// (no bytes.Split slice-of-slices), integers are parsed straight off
// the byte slices, and common chrom/name strings are interned.
func ParseLine(line []byte) (Record, error) {
	var fields [11][]byte
	n := 0
	start := 0
	for i := 0; ; i++ {
		if i < len(line) && line[i] != '\t' {
			continue
		}
		if n < len(fields) {
			fields[n] = line[start:i]
		}
		n++
		start = i + 1
		if i == len(line) {
			break
		}
	}
	if n != 11 {
		return Record{}, fmt.Errorf("want 11 fields, got %d", n)
	}
	var r Record
	var ok bool
	r.Chrom = intern(fields[0])
	if r.Start, ok = parseInt(fields[1]); !ok {
		return Record{}, fmt.Errorf("start: bad integer %q", fields[1])
	}
	if r.End, ok = parseInt(fields[2]); !ok {
		return Record{}, fmt.Errorf("end: bad integer %q", fields[2])
	}
	r.Name = intern(fields[3])
	score, ok := parseInt(fields[4])
	if !ok {
		return Record{}, fmt.Errorf("score: bad integer %q", fields[4])
	}
	r.Score = int(score)
	if len(fields[5]) != 1 {
		return Record{}, fmt.Errorf("strand %q", fields[5])
	}
	r.Strand = fields[5][0]
	// fields 6,7 (thickStart/thickEnd) and 8 (itemRgb) are derived;
	// accept and ignore their values.
	cov, ok := parseInt(fields[9])
	if !ok {
		return Record{}, fmt.Errorf("coverage: bad integer %q", fields[9])
	}
	r.Coverage = int(cov)
	meth, ok := parseInt(fields[10])
	if !ok {
		return Record{}, fmt.Errorf("methylation: bad integer %q", fields[10])
	}
	r.MethPct = int(meth)
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// maxLineBytes is the longest line Parse and Unmarshal accept; a longer
// one is an error wrapping bufio.ErrTooLong.
const maxLineBytes = 4 * 1024 * 1024

// minLineBytes is the shortest line ParseLine accepts: ten tabs, and
// one byte each for chrom, start, end, score, strand, coverage and
// methylation.
const minLineBytes = 17

// appendLine parses one line (without its newline) onto recs. Blank
// and whitespace-only lines are skipped.
func appendLine(recs []Record, line []byte, lineNo int) ([]Record, error) {
	if len(bytes.TrimSpace(line)) == 0 {
		return recs, nil
	}
	rec, err := ParseLine(line)
	if err != nil {
		return nil, &ParseError{Line: lineNo, Msg: err.Error()}
	}
	return append(recs, rec), nil
}

// Parse reads a whole bedMethyl stream. Blank lines are skipped.
func Parse(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		var err error
		if recs, err = appendLine(recs, sc.Bytes(), lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bed: scan: %w", err)
	}
	return recs, nil
}

// Unmarshal parses records from an in-memory TSV buffer. It accepts and
// rejects exactly what Parse does on the same bytes (lines end at '\n',
// one trailing '\r' is dropped, the last line needs no newline), but
// walks data in place and allocates the result once: the line count
// bounds the record count, and so does the shortest valid line, which
// keeps a buffer of bare newlines from reserving 80 bytes for each.
func Unmarshal(data []byte) ([]Record, error) {
	recs := make([]Record, 0, min(bytes.Count(data, []byte{'\n'})+1, (len(data)+1)/(minLineBytes+1)))
	for lineNo := 1; len(data) > 0; lineNo++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) >= maxLineBytes {
			return nil, fmt.Errorf("bed: scan: %w", bufio.ErrTooLong)
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		var err error
		if recs, err = appendLine(recs, line, lineNo); err != nil {
			return nil, err
		}
	}
	return recs, nil
}
