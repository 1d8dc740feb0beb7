package payload

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRealCopiesAtBoundary(t *testing.T) {
	src := []byte("hello")
	p := Real(src)
	src[0] = 'X'
	b, ok := p.Bytes()
	if !ok {
		t.Fatal("real payload reported no bytes")
	}
	if string(b) != "hello" {
		t.Fatalf("payload mutated through caller slice: %q", b)
	}
}

func TestRealSlice(t *testing.T) {
	p := Real([]byte("abcdefgh"))
	s, err := p.Slice(2, 3)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	b, _ := s.Bytes()
	if string(b) != "cde" {
		t.Fatalf("Slice = %q, want cde", b)
	}
}

func TestSliceOutOfRange(t *testing.T) {
	cases := []struct{ off, n int64 }{
		{-1, 2}, {0, -1}, {5, 10}, {100, 1},
	}
	for _, c := range cases {
		_, err := Real(make([]byte, 8)).Slice(c.off, c.n)
		var re *RangeError
		if !errors.As(err, &re) {
			t.Fatalf("Slice(%d,%d) err = %v, want RangeError", c.off, c.n, err)
		}
		_, err = Sized(8).Slice(c.off, c.n)
		if !errors.As(err, &re) {
			t.Fatalf("Sized Slice(%d,%d) err = %v, want RangeError", c.off, c.n, err)
		}
	}
}

func TestSizedBasics(t *testing.T) {
	p := Sized(1 << 40)
	if p.Size() != 1<<40 {
		t.Fatalf("Size = %d", p.Size())
	}
	if _, ok := p.Bytes(); ok {
		t.Fatal("sized payload claimed to have bytes")
	}
	s, err := p.Slice(10, 100)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if s.Size() != 100 {
		t.Fatalf("slice size = %d, want 100", s.Size())
	}
}

func TestSizedNegativeClamps(t *testing.T) {
	if Sized(-5).Size() != 0 {
		t.Fatal("negative size not clamped")
	}
}

func TestConcatAllReal(t *testing.T) {
	p := Concat(Real([]byte("ab")), Real([]byte("cd")), Real([]byte("ef")))
	b, ok := p.Bytes()
	if !ok {
		t.Fatal("concat of real payloads is not real")
	}
	if !bytes.Equal(b, []byte("abcdef")) {
		t.Fatalf("concat = %q", b)
	}
}

func TestConcatMixedDegradesToSized(t *testing.T) {
	p := Concat(Real([]byte("ab")), Sized(100))
	if _, ok := p.Bytes(); ok {
		t.Fatal("mixed concat claimed real bytes")
	}
	if p.Size() != 102 {
		t.Fatalf("mixed concat size = %d, want 102", p.Size())
	}
}

// A single real part comes back as it is: same backing array, no copy.
// A single sized part stays sized.
func TestConcatSinglePartIsNotCopied(t *testing.T) {
	part := Real([]byte("abcdef"))
	whole := Concat(part)
	in, _ := part.Bytes()
	out, ok := whole.Bytes()
	if !ok || !bytes.Equal(out, in) {
		t.Fatalf("concat of one real part = %q, %v", out, ok)
	}
	if &out[0] != &in[0] {
		t.Fatal("concat of one real part copied it")
	}
	if _, ok := Concat(Sized(7)).Bytes(); ok {
		t.Fatal("concat of one sized part claimed real bytes")
	}
	if Concat(Sized(7)).Size() != 7 {
		t.Fatal("concat of one sized part changed its size")
	}
}

// TestHolderCannotWritePastItsBytes: a slice of a payload used to carry
// the parent's capacity, so an append to the bytes of a ranged read wrote
// the stored object's next byte, which a join in place now also hands
// out as the next part.
func TestHolderCannotWritePastItsBytes(t *testing.T) {
	whole := Real([]byte("abcdef"))
	head, _ := whole.Slice(0, 3)
	tail, _ := whole.Slice(3, 3)
	for _, pl := range []Payload{head, Concat(head, tail), RealNoCopy(make([]byte, 2, 8))} {
		b, _ := pl.Bytes()
		if cap(b) != len(b) {
			t.Errorf("Bytes of a %d-byte payload has capacity %d", len(b), cap(b))
		}
		_ = append(b, 'X')
	}
	if b, _ := whole.Bytes(); string(b) != "abcdef" {
		t.Fatalf("an append to a slice's bytes wrote the parent: %q", b)
	}
	if b, _ := tail.Bytes(); string(b) != "def" {
		t.Fatalf("an append to the head's bytes wrote the tail: %q", b)
	}
}

// TestConcatJoinsAdjacentPartsInPlace: parts that sit side by side in one
// array, empty ones between them included, come back as one span over
// that array, and the join allocates the payload alone, not the bytes.
func TestConcatJoinsAdjacentPartsInPlace(t *testing.T) {
	whole := Real(bytes.Repeat([]byte("0123456789"), 1<<16))
	in, _ := whole.Bytes()
	head, _ := whole.Slice(0, 1<<19)
	tail, _ := whole.Slice(1<<19, whole.Size()-1<<19)
	for _, parts := range [][]Payload{
		{head, tail},
		{RealNoCopy(nil), head, Real(nil), tail, RealNoCopy(nil)},
	} {
		out, ok := Concat(parts...).Bytes()
		if !ok || !bytes.Equal(out, in) || &out[0] != &in[0] {
			t.Fatalf("adjacent parts joined to %d bytes, real %v, in place %v", len(out), ok, ok && &out[0] == &in[0])
		}
	}
	if n := testing.AllocsPerRun(100, func() { Concat(head, tail) }); n != 1 {
		t.Fatalf("joining adjacent halves made %v allocations, want the payload's 1", n)
	}
}

// TestConcatCopiesWhatIsNotAdjacent: parts out of order, with a gap, or
// in one array but behind a capacity that stops at their end (as two
// separate arrays that neighbour in memory would) are copied; mixed parts
// are sized.
func TestConcatCopiesWhatIsNotAdjacent(t *testing.T) {
	arr := []byte("abcdef")
	whole := RealNoCopy(arr)
	head, _ := whole.Slice(0, 3)
	tail, _ := whole.Slice(3, 3)
	gap, _ := whole.Slice(4, 2)
	for _, c := range []struct {
		parts []Payload
		want  string
	}{
		{[]Payload{tail, head}, "defabc"},
		{[]Payload{head, gap}, "abcef"},
		{[]Payload{head, head}, "abcabc"},
		{[]Payload{RealNoCopy(arr[:3:3]), RealNoCopy(arr[3:])}, "abcdef"},
	} {
		out, ok := Concat(c.parts...).Bytes()
		if !ok || string(out) != c.want || &out[0] == &arr[0] {
			t.Errorf("join = %q, real %v, in place %v; want a copy %q", out, ok, ok && &out[0] == &arr[0], c.want)
		}
	}
	if p := Concat(head, Sized(4), tail); p.Size() != 10 {
		t.Errorf("mixed join has size %d, want 10", p.Size())
	} else if _, ok := p.Bytes(); ok {
		t.Error("mixed join claimed real bytes")
	}
}

func TestConcatEmpty(t *testing.T) {
	p := Concat()
	if p.Size() != 0 {
		t.Fatalf("empty concat size = %d", p.Size())
	}
	if _, ok := p.Bytes(); !ok {
		t.Fatal("empty concat should be real (zero bytes)")
	}
}

func TestPropertySliceSizePreserved(t *testing.T) {
	f := func(data []byte, offSeed, nSeed uint16) bool {
		p := Real(data)
		if len(data) == 0 {
			return true
		}
		off := int64(offSeed) % p.Size()
		n := int64(nSeed) % (p.Size() - off)
		s, err := p.Slice(off, n)
		if err != nil {
			return false
		}
		b, _ := s.Bytes()
		return s.Size() == n && bytes.Equal(b, data[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConcatSizeAdditive(t *testing.T) {
	f := func(a, b, c []byte) bool {
		p := Concat(Real(a), Real(b), Real(c))
		return p.Size() == int64(len(a)+len(b)+len(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
