// Package methcomp implements a special-purpose compressor for DNA
// methylation annotation data (bedMethyl), reproducing the METHCOMP
// system the paper's pipeline runs: a sort stage (elsewhere, in the
// shuffle operator) followed by an embarrassingly parallel encode
// stage built on this codec.
//
// The codec splits records into streams (position deltas, interval
// lengths, coverage, strand, methylation percentage) and entropy-codes
// them with an adaptive binary range coder, exploiting the structure
// of sorted bisulfite data: tiny position deltas, near-constant
// interval lengths, low-entropy bimodal methylation levels. On
// representative data it compresses an order of magnitude better than
// gzip, which is METHCOMP's headline claim.
package methcomp

import (
	"errors"
	"math/bits"
)

// ErrCorrupt reports an undecodable compressed stream.
var ErrCorrupt = errors.New("methcomp: corrupt stream")

const (
	probBits  = 11
	probInit  = 1 << (probBits - 1) // 1024: p = 0.5
	moveBits  = 5
	topValue  = 1 << 24
	probCount = 1 << probBits
)

// prob is one adaptive binary probability (11-bit, LZMA-style).
type prob = uint16

// rangeEncoder is a carry-aware binary range encoder.
type rangeEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

func newRangeEncoder() *rangeEncoder {
	return &rangeEncoder{rng: 0xFFFFFFFF, cacheSize: 1}
}

// The encoder's hot paths (a bit tree's walk, a run of direct bits)
// keep low and rng in locals and store them back once at the end;
// shiftLow takes and returns low for the same reason. Every path
// renormalises exactly as the decoder does, byte for byte.

// codeBit codes one bit at probability *p onto low and rng and adapts
// *p; the caller renormalises.
func codeBit(low uint64, rng uint32, p *prob, bit uint32) (uint64, uint32) {
	bound := (rng >> probBits) * uint32(*p)
	if bit == 0 {
		*p += (probCount - *p) >> moveBits
		return low, bound
	}
	*p -= *p >> moveBits
	return low + uint64(bound), rng - bound
}

func (e *rangeEncoder) encodeBit(p *prob, bit int) {
	e.low, e.rng = codeBit(e.low, e.rng, p, uint32(bit))
	for e.rng < topValue {
		e.low = e.shiftLow(e.low)
		e.rng <<= 8
	}
}

// encodeDirect writes n equiprobable bits of v (MSB first).
func (e *rangeEncoder) encodeDirect(v uint64, n int) {
	low, rng := e.low, e.rng
	for i := n - 1; i >= 0; i-- {
		rng >>= 1
		low += uint64(rng) & -((v >> uint(i)) & 1) // all ones for a 1 bit
		for rng < topValue {
			low = e.shiftLow(low)
			rng <<= 8
		}
	}
	e.low, e.rng = low, rng
}

// shiftLow moves low's top byte out (through the one-byte cache and
// the run of pending 0xFF bytes a carry may still turn into 0x00) and
// returns low shifted up a byte.
func (e *rangeEncoder) shiftLow(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || (low>>32) != 0 {
		temp := e.cache
		for {
			e.out = append(e.out, byte(uint64(temp)+(low>>32)))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(low >> 24)
	}
	e.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

// finish flushes the encoder and returns the coded bytes.
func (e *rangeEncoder) finish() []byte {
	for i := 0; i < 5; i++ {
		e.low = e.shiftLow(e.low)
	}
	return e.out
}

// rangeDecoder mirrors rangeEncoder.
type rangeDecoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
	// overrun is set once the decoder has read past the end of in. The
	// encoder's finish flushes every byte the decoder will ask for, so
	// a stream that runs out early was truncated or never held the
	// symbols being decoded from it.
	overrun bool
}

func newRangeDecoder(in []byte) (*rangeDecoder, error) {
	if len(in) < 5 {
		return nil, ErrCorrupt
	}
	d := &rangeDecoder{rng: 0xFFFFFFFF, in: in}
	// The first byte is the encoder's initial pending cache slot; the
	// decoder's code window starts at the second byte (standard
	// LZMA-style pairing).
	d.pos = 1
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return d, nil
}

func (d *rangeDecoder) nextByte() byte {
	if d.pos >= len(d.in) {
		d.overrun = true
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

func (d *rangeDecoder) decodeBit(p *prob) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (probCount - *p) >> moveBits
		bit = 0
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> moveBits
		bit = 1
	}
	for d.rng < topValue {
		d.code = d.code<<8 | uint32(d.nextByte())
		d.rng <<= 8
	}
	return bit
}

func (d *rangeDecoder) decodeDirect(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		d.rng >>= 1
		t := (d.code - d.rng) >> 31 // 0 if code >= rng (bit 1), 1 if bit 0
		d.code -= d.rng & (t - 1)
		v = v<<1 | uint64(1-t)
		for d.rng < topValue {
			d.code = d.code<<8 | uint32(d.nextByte())
			d.rng <<= 8
		}
	}
	return v
}

// bitTree codes fixed-width values MSB-first through a tree of
// adaptive probabilities, one per internal node.
type bitTree struct {
	bits  int
	probs []prob
}

func newBitTree(bits int) *bitTree {
	probs := make([]prob, 1<<bits)
	for i := range probs {
		probs[i] = probInit
	}
	return &bitTree{bits: bits, probs: probs}
}

func (t *bitTree) encode(e *rangeEncoder, v uint32) {
	low, rng := e.low, e.rng
	idx := uint32(1)
	for i := t.bits - 1; i >= 0; i-- {
		bit := (v >> uint(i)) & 1
		low, rng = codeBit(low, rng, &t.probs[idx], bit)
		for rng < topValue {
			low = e.shiftLow(low)
			rng <<= 8
		}
		idx = idx<<1 | bit
	}
	e.low, e.rng = low, rng
}

func (t *bitTree) decode(d *rangeDecoder) uint32 {
	idx := uint32(1)
	for i := 0; i < t.bits; i++ {
		idx = idx<<1 | uint32(d.decodeBit(&t.probs[idx]))
	}
	return idx - 1<<t.bits
}

// uintCoder codes arbitrary uint64s as an adaptively-coded bit-length
// bucket followed by the value's lower bits (top bit implicit, the
// rest direct).
type uintCoder struct {
	buckets *bitTree // 7 bits: lengths 0..64
}

func newUintCoder() *uintCoder {
	return &uintCoder{buckets: newBitTree(7)}
}

func (c *uintCoder) encode(e *rangeEncoder, v uint64) {
	n := bits.Len64(v)
	c.buckets.encode(e, uint32(n))
	if n >= 2 {
		e.encodeDirect(v&((1<<uint(n-1))-1), n-1)
	}
}

func (c *uintCoder) decode(d *rangeDecoder) uint64 {
	n := int(c.buckets.decode(d))
	switch {
	case n == 0:
		return 0
	case n == 1:
		return 1
	default:
		return 1<<uint(n-1) | d.decodeDirect(n-1)
	}
}

// zigzag maps signed deltas to unsigned with small magnitudes staying
// small.
func zigzag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

func unzigzag(v uint64) int64 {
	return int64(v>>1) ^ -int64(v&1)
}
