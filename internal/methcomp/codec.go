package methcomp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// Format: "MCZ1" magic, format version byte, varint record count,
// chromosome dictionary, chromosome run list, flags byte, then the
// range-coded stream; optional raw trailer sections for name/score
// exceptions.
const (
	magic   = "MCZ1"
	version = 1
)

const (
	flagNamesDot     = 1 << 0 // every Name is "."
	flagScoreDerived = 1 << 1 // every Score == min(Coverage, 1000)
)

// methContexts buckets the previous methylation level into contexts
// for the adaptive model: unmethylated, intermediate, methylated.
func methContext(prev int) int {
	switch {
	case prev <= 15:
		return 0
	case prev < 85:
		return 1
	default:
		return 2
	}
}

// deltaContext buckets the previous position delta's bit length so
// island-dense and open-sea regions adapt separately.
func deltaContext(prevBits int) int {
	switch {
	case prevBits <= 6:
		return 0
	case prevBits <= 10:
		return 1
	default:
		return 2
	}
}

// codedBytesPerRecord is what the coder reserves for the range-coded
// stream per record: sorted Generate data codes at 2.35 bytes a record
// (one encode task's 62.5k records in 147 KB), so the coder's buffer
// never regrows on the pipeline's input. Unsorted input (5.7 bytes a
// record) regrows by append.
const codedBytesPerRecord = 3

// ErrStrandDot reports a record on strand '.': bedMethyl files use '+'
// and '-' only, and container v1 codes the strand as one bit.
var ErrStrandDot = errors.New("methcomp: strand '.' unsupported in container v1")

// Compress encodes records into the METHCOMP container. Records may
// be in any order; sorted input (the pipeline's normal case) yields
// the headline compression ratios because position deltas collapse.
func Compress(recs []bed.Record) ([]byte, error) {
	return encode(func(fn func(bed.Record) error) error {
		for i, r := range recs {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("methcomp: record %d: %w", i, err)
			}
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}, len(recs))
}

// CompressLines encodes the bedMethyl lines of raw without building their
// records: the bytes of Compress(bed.Unmarshal(raw)), or the same error.
func CompressLines(raw []byte) ([]byte, error) {
	return encode(func(fn func(bed.Record) error) error {
		return bed.EachRecord(raw, fn)
	}, bytes.Count(raw, []byte{'\n'})+1)
}

// encode is the one coder. each calls fn with every record in order and
// returns its own first error or fn's; records bounds their count and
// sizes the coded stream's buffer.
func encode(each func(fn func(bed.Record) error) error, records int) ([]byte, error) {
	enc := newRangeEncoder()
	enc.out = make([]byte, 0, 5+codedBytesPerRecord*records)
	deltas := [3]*uintCoder{newUintCoder(), newUintCoder(), newUintCoder()}
	lengths := newUintCoder()
	coverage := newUintCoder()
	strand := prob(probInit)
	meths := [3]*bitTree{newBitTree(7), newBitTree(7), newBitTree(7)}

	// One walk codes the records and collects the header: the count, the
	// chromosome dictionary in first-appearance order with the run list
	// (sorted records arrive grouped by chromosome; unsorted ones make
	// more, shorter runs) and the exception flags. A strand '.' is only
	// remembered, so that an error anywhere in the records wins over it.
	chromIdx := make(map[string]int)
	var chroms []string
	type run struct {
		chrom int
		n     int
	}
	var runs []run
	flags := byte(flagNamesDot | flagScoreDerived)
	count, strandDot := 0, false
	prevStart, prevBits, prevMeth := int64(0), 0, 100
	if err := each(func(r bed.Record) error {
		count++
		if n := len(runs); n == 0 || chroms[runs[n-1].chrom] != r.Chrom {
			ci, ok := chromIdx[r.Chrom]
			if !ok {
				ci = len(chroms)
				chromIdx[r.Chrom] = ci
				chroms = append(chroms, r.Chrom)
			}
			runs = append(runs, run{chrom: ci})
			prevStart, prevBits = 0, 0
		}
		runs[len(runs)-1].n++
		if r.Name != "." {
			flags &^= flagNamesDot
		}
		if r.Score != min(r.Coverage, 1000) {
			flags &^= flagScoreDerived
		}

		d := zigzag(r.Start - prevStart)
		deltas[deltaContext(prevBits)].encode(enc, d)
		prevBits = bits.Len64(d)
		prevStart = r.Start

		lengths.encode(enc, uint64(r.End-r.Start-1)) // lengths are >= 1
		coverage.encode(enc, uint64(r.Coverage))

		sb := 0
		if r.Strand == '-' {
			sb = 1
		}
		strandDot = strandDot || r.Strand == '.'
		enc.encodeBit(&strand, sb)

		meths[methContext(prevMeth)].encode(enc, uint32(r.MethPct))
		prevMeth = r.MethPct
		return nil
	}); err != nil {
		return nil, err
	}
	if strandDot {
		return nil, ErrStrandDot
	}
	coded := enc.finish()

	// The header, reserved at what hg38 names and sorted runs take (8
	// bytes a chromosome, 4 a run), in front of the coded stream.
	out := make([]byte, 0, 16+8*len(chroms)+4*len(runs)+binary.MaxVarintLen64+len(coded))
	out = append(out, magic...)
	out = append(out, version)
	out = binary.AppendUvarint(out, uint64(count))
	out = binary.AppendUvarint(out, uint64(len(chroms)))
	for _, c := range chroms {
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
	}
	out = binary.AppendUvarint(out, uint64(len(runs)))
	for _, r := range runs {
		out = binary.AppendUvarint(out, uint64(r.chrom))
		out = binary.AppendUvarint(out, uint64(r.n))
	}
	out = append(out, flags)
	out = binary.AppendUvarint(out, uint64(len(coded)))
	out = append(out, coded...)

	// Raw exception trailers, each a second walk of the records.
	var err error
	if flags&flagNamesDot == 0 {
		err = each(func(r bed.Record) error {
			out = binary.AppendUvarint(out, uint64(len(r.Name)))
			out = append(out, r.Name...)
			return nil
		})
	}
	if flags&flagScoreDerived == 0 && err == nil {
		err = each(func(r bed.Record) error {
			out = binary.AppendUvarint(out, uint64(r.Score))
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// reader tracks a position in the container's raw sections.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return v, nil
}

// bytes returns the next n bytes. n is a length read from the input:
// it is compared against what is left, never added to a position.
func (r *reader) bytes(n uint64) ([]byte, error) {
	if n > uint64(r.left()) {
		return nil, ErrCorrupt
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// left is how many bytes remain: the bound on every count the input
// claims, since each counted item takes at least one.
func (r *reader) left() int { return len(r.buf) - r.pos }

// Decompress decodes a METHCOMP container back into records.
func Decompress(data []byte) ([]bed.Record, error) {
	r := &reader{buf: data}
	mg, err := r.bytes(uint64(len(magic) + 1))
	if err != nil {
		return nil, err
	}
	if string(mg[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if mg[4] != version {
		return nil, fmt.Errorf("methcomp: unsupported version %d", mg[4])
	}
	count64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if count64 > 1<<34 {
		return nil, fmt.Errorf("%w: absurd record count %d", ErrCorrupt, count64)
	}
	count := int(count64)

	nChroms, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nChroms > uint64(r.left()) {
		return nil, fmt.Errorf("%w: chrom count %d exceeds input", ErrCorrupt, nChroms)
	}
	chroms := make([]string, nChroms)
	for i := range chroms {
		ln, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(ln)
		if err != nil {
			return nil, err
		}
		chroms[i] = string(b)
	}
	nRuns, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nRuns > uint64(r.left())/2 {
		return nil, fmt.Errorf("%w: run count %d exceeds input", ErrCorrupt, nRuns)
	}
	type run struct {
		chrom int
		n     int
	}
	runs := make([]run, 0, nRuns)
	var runTotal uint64
	for i := uint64(0); i < nRuns; i++ {
		ci, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ci >= nChroms {
			return nil, fmt.Errorf("%w: chrom index out of range", ErrCorrupt)
		}
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > count64-runTotal {
			return nil, fmt.Errorf("%w: runs exceed count %d", ErrCorrupt, count)
		}
		runs = append(runs, run{chrom: int(ci), n: int(n)})
		runTotal += n
	}
	if runTotal != count64 {
		return nil, fmt.Errorf("%w: run total %d != count %d", ErrCorrupt, runTotal, count)
	}
	flagB, err := r.bytes(1)
	if err != nil {
		return nil, err
	}
	flags := flagB[0]

	codedLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	coded, err := r.bytes(codedLen)
	if err != nil {
		return nil, err
	}
	dec, err := newRangeDecoder(coded)
	if err != nil {
		return nil, err
	}

	deltas := [3]*uintCoder{newUintCoder(), newUintCoder(), newUintCoder()}
	lengths := newUintCoder()
	coverage := newUintCoder()
	strand := prob(probInit)
	meths := [3]*bitTree{newBitTree(7), newBitTree(7), newBitTree(7)}

	// The count is not trusted with memory either: real data codes at
	// several bytes a record, so reserve no more records than coded
	// bytes and let append grow for the rare stream that packs tighter.
	recs := make([]bed.Record, 0, min(count, len(coded)))
	prevMeth := 100
	for _, rn := range runs {
		prevStart := int64(0)
		prevBits := 0
		for k := 0; k < rn.n; k++ {
			d := deltas[deltaContext(prevBits)].decode(dec)
			prevBits = bits.Len64(d)
			start := prevStart + unzigzag(d)
			prevStart = start
			length := int64(lengths.decode(dec)) + 1
			cov := int(coverage.decode(dec))
			sb := dec.decodeBit(&strand)
			meth := int(meths[methContext(prevMeth)].decode(dec))
			prevMeth = meth
			if dec.overrun {
				return nil, fmt.Errorf("%w: coded stream ends before record %d of %d", ErrCorrupt, len(recs), count)
			}

			rec := bed.Record{
				Chrom:    chroms[rn.chrom],
				Start:    start,
				End:      start + length,
				Name:     ".",
				Strand:   '+',
				Coverage: cov,
				MethPct:  meth,
			}
			if sb == 1 {
				rec.Strand = '-'
			}
			rec.Score = cov
			if rec.Score > 1000 {
				rec.Score = 1000
			}
			recs = append(recs, rec)
		}
	}

	if flags&flagNamesDot == 0 {
		for i := range recs {
			ln, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			b, err := r.bytes(ln)
			if err != nil {
				return nil, err
			}
			recs[i].Name = string(b)
		}
	}
	if flags&flagScoreDerived == 0 {
		for i := range recs {
			s, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			recs[i].Score = int(s)
		}
	}
	for i := range recs {
		if err := recs[i].Validate(); err != nil {
			return nil, fmt.Errorf("%w: decoded record %d invalid: %v", ErrCorrupt, i, err)
		}
	}
	return recs, nil
}

// Stats summarizes a compression run.
type Stats struct {
	Records         int
	RawBytes        int // TSV size
	CompressedBytes int
	Ratio           float64 // raw / compressed
	BytesPerRecord  float64
}

// Measure compresses records and reports size statistics against
// their TSV rendering.
func Measure(recs []bed.Record) (Stats, []byte, error) {
	raw := bed.Marshal(recs)
	comp, err := Compress(recs)
	if err != nil {
		return Stats{}, nil, err
	}
	st := Stats{
		Records:         len(recs),
		RawBytes:        len(raw),
		CompressedBytes: len(comp),
	}
	if len(comp) > 0 {
		st.Ratio = float64(len(raw)) / float64(len(comp))
	}
	if len(recs) > 0 {
		st.BytesPerRecord = float64(len(comp)) / float64(len(recs))
	}
	return st, comp, nil
}
