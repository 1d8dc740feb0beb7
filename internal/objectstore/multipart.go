package objectstore

import (
	"errors"
	"fmt"
	"sort"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// Multipart upload: the S3/COS protocol for assembling one large
// object from independently-uploaded parts. Parts upload concurrently
// over separate connections — this is how a single client (the VM
// exchange's staging, or a CLI uploading a multi-GB BED file) can
// exceed the per-connection bandwidth ceiling without splitting the
// final object.

var (
	// ErrNoSuchUpload is returned for operations on unknown or
	// completed upload IDs.
	ErrNoSuchUpload = errors.New("objectstore: no such multipart upload")
	// ErrNoParts is returned when completing an upload with no parts.
	ErrNoParts = errors.New("objectstore: multipart upload has no parts")
)

// multipartUpload is the service-side state of one in-flight upload.
type multipartUpload struct {
	bucket string
	key    string
	parts  map[int]payload.Payload
}

// CreateMultipartUpload starts an upload and returns its ID (class A).
func (s *Service) CreateMultipartUpload(p *des.Proc, bkt, key string) (string, error) {
	if err := s.admit(p, s.writeTB); err != nil {
		return "", err
	}
	if _, ok := s.buckets[bkt]; !ok {
		return "", ErrNoSuchBucket
	}
	s.uploadSeq++
	id := fmt.Sprintf("upload-%06d", s.uploadSeq)
	if s.uploads == nil {
		s.uploads = make(map[string]*multipartUpload)
	}
	s.uploads[id] = &multipartUpload{
		bucket: bkt,
		key:    key,
		parts:  make(map[int]payload.Payload),
	}
	return id, nil
}

// UploadPart transfers one part (class A). Part numbers start at 1;
// re-uploading a number replaces the part, like S3.
func (s *Service) UploadPart(p *des.Proc, uploadID string, partNumber int, pl payload.Payload, flowCap float64) error {
	if partNumber < 1 {
		return fmt.Errorf("objectstore: part number %d must be >= 1", partNumber)
	}
	r := s.request(p, uploadPart, s.writeTB, "", 1)
	r.key, r.part, r.body, r.flowCap = uploadID, partNumber, pl, flowCap
	_, err := r.run()
	r.release()
	return err
}

// CompleteMultipartUpload assembles the parts in part-number order
// into the final object (class A; no data transfer — the bytes are
// already server-side).
func (s *Service) CompleteMultipartUpload(p *des.Proc, uploadID string) error {
	if err := s.admit(p, s.writeTB); err != nil {
		return err
	}
	up, ok := s.uploads[uploadID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchUpload, uploadID)
	}
	if len(up.parts) == 0 {
		return ErrNoParts
	}
	b, ok := s.buckets[up.bucket]
	if !ok {
		return ErrNoSuchBucket
	}
	numbers := make([]int, 0, len(up.parts))
	for n := range up.parts {
		numbers = append(numbers, n)
	}
	sort.Ints(numbers)
	ordered := make([]payload.Payload, len(numbers))
	for i, n := range numbers {
		ordered[i] = up.parts[n]
	}
	s.keep(b, up.key, payload.Concat(ordered...))
	delete(s.uploads, uploadID)
	return nil
}

// AbortMultipartUpload discards an in-flight upload and its parts.
// Aborting an unknown ID succeeds (the reaper may have won), like S3.
func (s *Service) AbortMultipartUpload(p *des.Proc, uploadID string) error {
	if err := s.admit(p, s.writeTB); err != nil {
		return err
	}
	delete(s.uploads, uploadID)
	return nil
}
