package objectstore

import (
	"errors"
	"fmt"
)

var (
	// ErrNoSuchBucket is returned for operations on absent buckets.
	ErrNoSuchBucket = errors.New("objectstore: no such bucket")
	// ErrBucketExists is returned when creating a bucket that exists.
	ErrBucketExists = errors.New("objectstore: bucket already exists")
	// ErrSlowDown is the injected throttling failure, analogous to the
	// 503 SlowDown responses object storage services emit under load.
	// Clients are expected to retry with backoff.
	ErrSlowDown = errors.New("objectstore: slow down (503)")
)

// KeyError reports a missing object. It carries the bucket and key so
// pipeline errors are actionable.
type KeyError struct {
	Bucket, Key string
}

func (e *KeyError) Error() string {
	return fmt.Sprintf("objectstore: no such key %s/%s", e.Bucket, e.Key)
}

// IsNotFound reports whether err indicates a missing bucket or key.
func IsNotFound(err error) bool {
	var ke *KeyError
	return errors.Is(err, ErrNoSuchBucket) || errors.As(err, &ke)
}
