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
