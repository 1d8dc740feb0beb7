package objectstore

import (
	"errors"
	"io"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// ReadRange fetches bytes [off, off+n) of an object through the
// streaming machinery and returns them as one payload — the thin
// ranged-read helper result-serving layers sit on. Unlike GetRange it
// clamps to the object's extent the way an HTTP range request does: a
// range starting at or past EOF returns an empty payload, one
// overhanging EOF returns the bytes that exist, and n < 0 reads
// through the end. A negative off is clamped to zero.
//
// The transfer runs as a ClientStream, so the read shares GetStream's
// semantics exactly: chunked ranged GETs, mid-body throttles resumed
// from the first undelivered byte, and one MaxRetries budget covering
// the whole range. The extent probe is a Head, retried under the
// client's ordinary request policy.
func (c *Client) ReadRange(p *des.Proc, bkt, key string, off, n int64) (payload.Payload, error) {
	obj, err := c.Head(p, bkt, key)
	if err != nil {
		return nil, err
	}
	// off first, so that what is left past it cannot be negative; then n
	// against that, since off+n can wrap past MaxInt64.
	off = min(max(off, 0), obj.Size)
	if n < 0 || n > obj.Size-off {
		n = obj.Size - off
	}
	if n == 0 {
		return payload.Sized(0), nil
	}
	st, err := c.GetStream(p, bkt, key, off, n, StreamOptions{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var parts []payload.Payload
	for {
		pl, err := st.Next(p)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		parts = append(parts, pl)
	}
	return payload.Concat(parts...), nil
}
