package payload

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzPayloadSlice asks real and sized payloads for arbitrary ranges.
// Slice never panics: it answers a *RangeError exactly when the range
// leaves the payload (off+n wrapping past MaxInt64 included), and
// otherwise a payload of exactly the asked length, carrying exactly the
// asked bytes when real. The slices of a split, concatenated, are the
// whole again.
func FuzzPayloadSlice(f *testing.F) {
	f.Add([]byte("chr1\t100\t200\n"), int64(64), int64(0), int64(4), int64(7))
	f.Add([]byte("abc"), int64(3), int64(3), int64(0), int64(3))
	f.Add([]byte("abc"), int64(3), int64(2), int64(2), int64(0))
	f.Add([]byte{}, int64(0), int64(0), int64(0), int64(0))
	f.Add([]byte("abc"), int64(-5), int64(-1), int64(1), int64(-2))
	f.Add([]byte("abcdef"), int64(1)<<40, int64(math.MaxInt64), int64(1), int64(5))
	f.Add([]byte("abcdef"), int64(math.MaxInt64), int64(2), int64(math.MaxInt64), int64(1))
	f.Fuzz(func(t *testing.T, data []byte, size, off, n, cut int64) {
		for _, pl := range []Payload{Real(data), Sized(size)} {
			total := pl.Size()
			whole, real := pl.Bytes()
			inside := off >= 0 && n >= 0 && off <= total && n <= total-off
			got, err := pl.Slice(off, n)
			switch {
			case err != nil:
				var re *RangeError
				if !errors.As(err, &re) {
					t.Fatalf("Slice(%d, %d) of %d: error %v is not a *RangeError", off, n, total, err)
				}
				if inside {
					t.Fatalf("Slice(%d, %d) of %d refused: %v", off, n, total, err)
				}
			case !inside:
				t.Fatalf("Slice(%d, %d) of %d accepted", off, n, total)
			case got.Size() != n:
				t.Fatalf("Slice(%d, %d) of %d has size %d", off, n, total, got.Size())
			default:
				b, ok := got.Bytes()
				if ok != real || (real && !bytes.Equal(b, whole[off:off+n])) {
					t.Fatalf("Slice(%d, %d) of %d carries %q (real %v), want %q", off, n, total, b, ok, whole[off:off+n])
				}
			}

			// Split at cut, folded into [0, total], and join again.
			at := cut % (total + 1)
			if at < 0 {
				at += total + 1
			}
			head, err1 := pl.Slice(0, at)
			tail, err2 := pl.Slice(at, total-at)
			if err1 != nil || err2 != nil {
				t.Fatalf("split of %d at %d: %v / %v", total, at, err1, err2)
			}
			joined := Concat(head, tail)
			b, ok := joined.Bytes()
			if joined.Size() != total || ok != real || (real && !bytes.Equal(b, whole)) {
				t.Fatalf("split of %d at %d joins to size %d, real %v, %q", total, at, joined.Size(), ok, b)
			}
			if real && total > 0 && &b[0] != &whole[0] {
				t.Fatalf("split of %d at %d joins to a copy, not the parent's bytes", total, at)
			}
		}
	})
}
