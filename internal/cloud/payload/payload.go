// Package payload abstracts the contents of simulated cloud objects.
//
// Correctness-oriented runs (tests, the genomics example) move real
// bytes; full-scale experiments (the 3.5 GB Table 1 run) move sized
// payloads that carry only a length, so the simulator can model a
// multi-gigabyte pipeline without allocating it. Both kinds flow
// through exactly the same store, function, and VM code paths.
package payload

import "fmt"

// Payload is the content of a simulated object.
type Payload interface {
	// Size reports the payload length in bytes.
	Size() int64
	// Bytes returns the real contents and true, or nil and false for
	// sized payloads.
	Bytes() ([]byte, bool)
	// Slice returns the sub-payload [off, off+n). It must satisfy
	// 0 <= off, 0 <= n, off+n <= Size; violations are reported as an
	// error rather than a panic so simulated clients can surface them
	// like a cloud SDK would.
	Slice(off, n int64) (Payload, error)
}

// RangeError reports an out-of-bounds Slice request.
type RangeError struct {
	Off, N, Size int64
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("payload: range [%d, %d) out of bounds for size %d",
		e.Off, e.Off+e.N, e.Size)
}

type realPayload struct {
	data []byte
}

// Real wraps actual bytes. The payload keeps its own copy so later
// mutation of data cannot corrupt stored objects.
func Real(data []byte) Payload {
	cp := make([]byte, len(data))
	copy(cp, data)
	return &realPayload{data: cp}
}

// RealNoCopy wraps actual bytes without copying. The caller promises
// not to mutate data afterwards; use for large freshly-built buffers
// on hot paths.
func RealNoCopy(data []byte) Payload {
	return &realPayload{data: data}
}

func (p *realPayload) Size() int64 { return int64(len(p.data)) }

// Bytes caps the slice at its length: data can be a span of a larger
// array whose next bytes are another payload's, which an append must not
// write.
func (p *realPayload) Bytes() ([]byte, bool) { return p.data[:len(p.data):len(p.data)], true }

func (p *realPayload) Slice(off, n int64) (Payload, error) {
	if err := CheckRange(off, n, p.Size()); err != nil {
		return nil, err
	}
	return &realPayload{data: p.data[off : off+n]}, nil
}

type sizedPayload struct {
	size int64
}

// Sized returns a byte-free payload of the given logical size.
// Negative sizes are clamped to zero.
func Sized(size int64) Payload {
	if size < 0 {
		size = 0
	}
	return sizedPayload{size: size}
}

func (p sizedPayload) Size() int64 { return p.size }

func (p sizedPayload) Bytes() ([]byte, bool) { return nil, false }

func (p sizedPayload) Slice(off, n int64) (Payload, error) {
	if err := CheckRange(off, n, p.size); err != nil {
		return nil, err
	}
	return sizedPayload{size: n}, nil
}

// CheckRange is Slice's bounds check on its own: nil when [off, off+n)
// lies in a payload of size bytes, else the *RangeError Slice returns.
func CheckRange(off, n, size int64) error {
	// n > size-off, not off+n > size: the sum can wrap past MaxInt64.
	if off < 0 || n < 0 || off > size || n > size-off {
		return &RangeError{Off: off, N: n, Size: size}
	}
	return nil
}

// Concat joins payloads. If every part is real, the result is real;
// otherwise the result is sized with the summed length (mixing real
// and sized parts degrades to sized, since the real fragment alone
// cannot reconstruct the whole). Payloads are immutable and share memory
// (Slice, RealNoCopy), so real parts that already sit side by side in one
// array, a single part among them, come back as one span over it, not
// copied. The span's capacity tells: it never reaches past its own
// array, so two arrays that merely neighbour in memory are copied.
func Concat(parts ...Payload) Payload {
	var total int64
	var span []byte
	allReal, adjacent := true, true
	for _, p := range parts {
		total += p.Size()
		rp, ok := p.(*realPayload)
		switch {
		case !ok:
			allReal = false
		case len(rp.data) == 0:
		case len(span) == 0:
			span = rp.data
		case cap(span)-len(span) >= len(rp.data) && &span[:len(span)+1][len(span)] == &rp.data[0]:
			span = span[:len(span)+len(rp.data)]
		default:
			adjacent = false
		}
	}
	switch {
	case !allReal:
		return Sized(total)
	case adjacent:
		return RealNoCopy(span)
	}
	buf := make([]byte, 0, total)
	for _, p := range parts {
		buf = append(buf, p.(*realPayload).data...)
	}
	return RealNoCopy(buf)
}
