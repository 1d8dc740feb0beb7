package memcache

import (
	"errors"
	"fmt"
)

var (
	// ErrStopped is returned for operations on a deprovisioned cluster.
	ErrStopped = errors.New("memcache: cluster is stopped")
	// ErrOutOfMemory is returned when a Set does not fit in its shard's
	// free memory (Redis "OOM command not allowed" under noeviction).
	ErrOutOfMemory = errors.New("memcache: out of memory")
	// ErrTooLarge is returned when a single value exceeds a node's
	// capacity outright: it would not fit in an empty shard.
	ErrTooLarge = errors.New("memcache: value larger than node capacity")
	// ErrNodeDown is returned for operations routed to a failed node
	// (see Cluster.KillNode). The shard's data is gone; callers that
	// can regenerate or re-route it should degrade rather than fail.
	ErrNodeDown = errors.New("memcache: node is down")
)

// KeyError reports a missing key.
type KeyError struct {
	Key string
}

func (e *KeyError) Error() string {
	return fmt.Sprintf("memcache: no such key %q", e.Key)
}

// IsNotFound reports whether err is a missing-key error.
func IsNotFound(err error) bool {
	var ke *KeyError
	return errors.As(err, &ke)
}
