package objectstore

import (
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// Streaming PUT: the write-side dual of GetStream. A PutWriter
// accumulates payloads into multipart parts and uploads each completed
// part on its own connection while the caller keeps producing the next
// one, so producer CPU (a reducer's k-way merge) overlaps the output
// transfer instead of paying for it serially after one monolithic Put.
// Output below one part never opens a multipart upload at all — Close
// degenerates to a plain PUT, request-for-request identical to the
// buffered path.

// DefaultPutConns is the number of concurrent part uploads: one part
// in flight while the next fills, classic double buffering on the write
// side.
const DefaultPutConns = 2

// PutStreamOptions tune a streaming PUT.
type PutStreamOptions struct {
	// PartBytes is the upload granularity (default 4 MiB).
	PartBytes int64
}

// PutStreamRequests is the class-A request count of a streamed PUT of
// the given size at the given part granularity: one plain PUT when the
// output fits in a single part, otherwise create + ceil(size/part)
// uploads + complete. Shared with the cost predictors so modeled and
// simulated request bills agree.
func PutStreamRequests(size, partBytes int64) int64 {
	if partBytes <= 0 {
		partBytes = DefaultStreamChunk
	}
	if size <= partBytes {
		return 1
	}
	return (size+partBytes-1)/partBytes + 2
}

// PutWriter is one in-flight streaming PUT. All methods must be called
// from the owning des process; the spawned part uploaders synchronize
// through the kernel's run-one-process-at-a-time discipline.
type PutWriter struct {
	c        *Client
	bkt, key string
	opts     PutStreamOptions

	uploadID    string // lazily created when the first part seals
	pending     []payload.Payload
	pendingSize int64
	partNum     int

	sem    *des.Resource // bounds concurrent part uploads
	wg     des.WaitGroup
	err    error // first part-upload failure, surfaced at Close
	closed bool
}

// PutStream opens a streaming PUT of bkt/key. Write payloads as they
// are produced, then Close to make the object durable; nothing is
// visible (and no request is issued) before the first part seals.
func (c *Client) PutStream(p *des.Proc, bkt, key string, opts PutStreamOptions) *PutWriter {
	if opts.PartBytes <= 0 {
		opts.PartBytes = DefaultStreamChunk
	}
	return &PutWriter{
		c: c, bkt: bkt, key: key, opts: opts,
		sem: des.NewResource(p.Sim(), DefaultPutConns),
	}
}

// Write appends pl to the in-progress part, sealing and uploading the
// part in the background once it reaches PartBytes. Write blocks only
// when DefaultPutConns parts are already in flight (backpressure), so
// the caller overlaps its own work with the uploads. The payload is
// retained until its part completes — callers must not reuse its bytes.
func (w *PutWriter) Write(p *des.Proc, pl payload.Payload) error {
	if w.closed {
		return ErrStreamClosed
	}
	if w.err != nil {
		return w.err // fail fast: a part already failed
	}
	if pl == nil || pl.Size() == 0 {
		return nil
	}
	w.pending = append(w.pending, pl)
	w.pendingSize += pl.Size()
	if w.pendingSize >= w.opts.PartBytes {
		return w.seal(p)
	}
	return nil
}

// seal concats the pending payloads into one part and uploads it on a
// background process, creating the multipart upload on the first part.
func (w *PutWriter) seal(p *des.Proc) error {
	if len(w.pending) == 0 {
		return nil
	}
	part := payload.Concat(w.pending...)
	w.pending = nil
	w.pendingSize = 0
	if w.uploadID == "" {
		err := w.c.retry(p, func() error {
			var err error
			w.uploadID, err = w.c.svc.CreateMultipartUpload(p, w.bkt, w.key)
			return err
		})
		if err != nil {
			w.err = err
			return err
		}
	}
	w.partNum++
	num := w.partNum
	w.sem.Acquire(p, 1)
	w.wg.Add(1)
	p.SpawnNumbered("puts-part-", int64(num), func(up *des.Proc) {
		defer w.wg.Done()
		defer w.sem.Release(1)
		err := w.c.retry(up, func() error {
			return w.c.svc.UploadPart(up, w.uploadID, num, part, w.c.FlowCap)
		})
		if err != nil && w.err == nil {
			w.err = err
		}
	})
	return nil
}

// Close flushes the final part, waits for every upload, and completes
// the multipart upload — or, when the whole output fit below one part,
// issues the single plain PUT. Only a nil return means the object is
// durable; any part failure aborts the upload.
func (w *PutWriter) Close(p *des.Proc) error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.uploadID == "" && w.err == nil {
		pl := payload.Concat(w.pending...)
		w.pending = nil
		w.err = w.c.Put(p, w.bkt, w.key, pl)
		return w.err
	}
	if w.err == nil {
		_ = w.seal(p)
	}
	w.wg.Wait(p)
	if w.err != nil {
		if w.uploadID != "" {
			_ = w.c.retry(p, func() error { return w.c.svc.AbortMultipartUpload(p, w.uploadID) })
		}
		return w.err
	}
	w.err = w.c.retry(p, func() error { return w.c.svc.CompleteMultipartUpload(p, w.uploadID) })
	return w.err
}

// Abort abandons the upload best-effort: in-flight parts drain, then
// the multipart upload (if one was opened) is discarded. Closing or
// aborting twice is a no-op, so Abort is always safe to defer.
func (w *PutWriter) Abort(p *des.Proc) {
	if w.closed {
		return
	}
	w.closed = true
	w.pending = nil
	w.wg.Wait(p)
	if w.uploadID != "" {
		_ = w.c.retry(p, func() error { return w.c.svc.AbortMultipartUpload(p, w.uploadID) })
	}
}
