package methcomp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitRoundtripUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := make([]int, 10000)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	enc := newRangeEncoder()
	p := prob(probInit)
	for _, b := range bits {
		enc.encodeBit(&p, b)
	}
	data := enc.finish()
	dec, err := newRangeDecoder(data)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	q := prob(probInit)
	for i, want := range bits {
		if got := dec.decodeBit(&q); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestBitRoundtripSkewed(t *testing.T) {
	// Long runs of identical bits push probabilities to the extremes
	// and exercise carry propagation in shiftLow.
	patterns := [][2]int{{1, 5000}, {0, 5000}, {1, 1}, {0, 100}, {1, 3000}}
	var bits []int
	for _, p := range patterns {
		for i := 0; i < p[1]; i++ {
			bits = append(bits, p[0])
		}
	}
	enc := newRangeEncoder()
	p := prob(probInit)
	for _, b := range bits {
		enc.encodeBit(&p, b)
	}
	data := enc.finish()
	// Skewed input must compress far below 1 bit/bit.
	if len(data) > len(bits)/16 {
		t.Fatalf("skewed stream = %d bytes for %d bits; model not adapting", len(data), len(bits))
	}
	dec, err := newRangeDecoder(data)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	q := prob(probInit)
	for i, want := range bits {
		if got := dec.decodeBit(&q); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestDirectBitsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]uint64, 2000)
	widths := make([]int, len(vals))
	for i := range vals {
		widths[i] = 1 + rng.Intn(32)
		vals[i] = rng.Uint64() & ((1 << uint(widths[i])) - 1)
	}
	enc := newRangeEncoder()
	for i, v := range vals {
		enc.encodeDirect(v, widths[i])
	}
	data := enc.finish()
	dec, err := newRangeDecoder(data)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	for i, want := range vals {
		if got := dec.decodeDirect(widths[i]); got != want {
			t.Fatalf("val %d = %d, want %d (width %d)", i, got, want, widths[i])
		}
	}
}

func TestBitTreeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]uint32, 5000)
	for i := range vals {
		vals[i] = uint32(rng.Intn(101)) // meth percentages
	}
	enc := newRangeEncoder()
	tree := newBitTree(7)
	for _, v := range vals {
		tree.encode(enc, v)
	}
	data := enc.finish()
	dec, err := newRangeDecoder(data)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	tree2 := newBitTree(7)
	for i, want := range vals {
		if got := tree2.decode(dec); got != want {
			t.Fatalf("val %d = %d, want %d", i, got, want)
		}
	}
}

func TestUintCoderRoundtripEdgeValues(t *testing.T) {
	vals := []uint64{0, 1, 2, 3, 127, 128, 255, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)}
	enc := newRangeEncoder()
	uc := newUintCoder()
	for _, v := range vals {
		uc.encode(enc, v)
	}
	data := enc.finish()
	dec, err := newRangeDecoder(data)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	uc2 := newUintCoder()
	for i, want := range vals {
		if got := uc2.decode(dec); got != want {
			t.Fatalf("val %d = %d, want %d", i, got, want)
		}
	}
}

func TestZigzag(t *testing.T) {
	cases := map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, 1 << 40: 1 << 41}
	for in, want := range cases {
		if got := zigzag(in); got != want {
			t.Fatalf("zigzag(%d) = %d, want %d", in, got, want)
		}
		if back := unzigzag(zigzag(in)); back != in {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", in, back)
		}
	}
}

func TestPropertyZigzagRoundtrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUintCoderRoundtrip(t *testing.T) {
	f := func(vals []uint64) bool {
		enc := newRangeEncoder()
		uc := newUintCoder()
		for _, v := range vals {
			uc.encode(enc, v)
		}
		dec, err := newRangeDecoder(enc.finish())
		if err != nil {
			return false
		}
		uc2 := newUintCoder()
		for _, want := range vals {
			if uc2.decode(dec) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMixedStreamRoundtrip(t *testing.T) {
	// Interleave bits, trees and uints like the codec does.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%200 + 1
		type op struct {
			kind int
			val  uint64
		}
		ops := make([]op, count)
		for i := range ops {
			ops[i] = op{kind: rng.Intn(3), val: rng.Uint64() % 5000}
		}
		enc := newRangeEncoder()
		p := prob(probInit)
		tree := newBitTree(7)
		uc := newUintCoder()
		for _, o := range ops {
			switch o.kind {
			case 0:
				enc.encodeBit(&p, int(o.val&1))
			case 1:
				tree.encode(enc, uint32(o.val%128))
			default:
				uc.encode(enc, o.val)
			}
		}
		dec, err := newRangeDecoder(enc.finish())
		if err != nil {
			return false
		}
		q := prob(probInit)
		tree2 := newBitTree(7)
		uc2 := newUintCoder()
		for _, o := range ops {
			switch o.kind {
			case 0:
				if dec.decodeBit(&q) != int(o.val&1) {
					return false
				}
			case 1:
				if tree2.decode(dec) != uint32(o.val%128) {
					return false
				}
			default:
				if uc2.decode(dec) != o.val {
					return false
				}
			}
		}
		// The decoder consumes exactly what finish flushed: Decompress
		// relies on it to tell a short stream from a whole one.
		return !dec.overrun && dec.pos == len(dec.in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStreamFinish(t *testing.T) {
	enc := newRangeEncoder()
	data := enc.finish()
	if len(data) != 5 {
		t.Fatalf("empty stream = %d bytes, want 5 (flush)", len(data))
	}
	if _, err := newRangeDecoder(data); err != nil {
		t.Fatalf("decoder on empty stream: %v", err)
	}
}

func TestDecoderRejectsShortInput(t *testing.T) {
	if _, err := newRangeDecoder([]byte{1, 2, 3}); err == nil {
		t.Fatal("short input accepted")
	}
}
