package objectstore

import (
	"errors"
	"fmt"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// Client is the SDK-style wrapper functions and VMs use to talk to the
// store: it retries throttling failures with exponential backoff and
// can carry a flow cap modeling the caller's NIC share.
type Client struct {
	svc *Service
	// FlowCap, when > 0, caps every transfer's rate (bytes/second) in
	// addition to the service's per-connection ceiling.
	FlowCap float64
	// MaxRetries bounds retry attempts for ErrSlowDown (0: defaultMaxRetries).
	MaxRetries int

	retries int64
}

// RetryBackoffBase is the client's first retry delay, doubled per
// attempt: the ladder a throttled request waits out, and what the
// planner's brownout model prices a stall with.
const RetryBackoffBase = 100 * time.Millisecond

// NewClient returns a client for svc with default retry policy.
func NewClient(svc *Service) *Client {
	return &Client{svc: svc}
}

// WithFlowCap returns a copy of the client whose transfers are capped
// at bps bytes/second.
func (c *Client) WithFlowCap(bps float64) *Client {
	cp := *c
	cp.FlowCap = bps
	cp.retries = 0
	return &cp
}

// Retries reports how many throttled requests this client retried.
func (c *Client) Retries() int64 { return c.retries }

// retry runs op, backing off on ErrSlowDown up to MaxRetries times.
func (c *Client) retry(p *des.Proc, op func() error) error {
	for retries := 0; ; {
		err := op()
		if err == nil || !errors.Is(err, ErrSlowDown) {
			return err
		}
		if err := c.backOff(p, &retries, err); err != nil {
			return err
		}
	}
}

// backOff is one rung of a request's retry ladder: it sleeps p the
// delay the *retries-th consecutive throttle costs and counts it, or
// reports the ladder exhausted by cause. Whatever is retried (a call, an
// element of a list, a stream) owns its count and resets it on
// progress.
func (c *Client) backOff(p *des.Proc, retries *int, cause error) error {
	if *retries >= c.maxRetries() {
		return fmt.Errorf("objectstore: retries exhausted: %w", cause)
	}
	delay := RetryBackoffBase << *retries
	*retries++
	c.retries++
	p.Sleep(delay)
	return nil
}

// defaultMaxRetries is a client's retry bound when it sets none.
const defaultMaxRetries = 6

// maxRetries returns the client's effective retry bound.
func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return defaultMaxRetries
}

// CreateBucket creates a bucket, tolerating that it already exists.
func (c *Client) CreateBucket(p *des.Proc, name string) error {
	err := c.retry(p, func() error { return c.svc.CreateBucket(p, name) })
	if errors.Is(err, ErrBucketExists) {
		return nil
	}
	return err
}

// Put stores an object with retry.
func (c *Client) Put(p *des.Proc, bkt, key string, pl payload.Payload) error {
	return c.retry(p, func() error { return c.svc.Put(p, bkt, key, pl, c.FlowCap) })
}

// PutEach stores the n objects each(0), ..., each(n-1) in bkt strictly
// one after another, like Put in a loop, but as one request that parks
// p once (see request.go). Every element has its own retry ladder. It
// returns how many were stored, and the error that stopped the list at
// that element. each may be called more than once for an element (once
// per attempt), from event context: it must not block.
func (c *Client) PutEach(p *des.Proc, bkt string, n int, each func(i int) (string, payload.Payload)) (int, error) {
	for i, retries := 0, 0; i < n; {
		next, err := c.svc.putEach(p, bkt, i, n, each, c.FlowCap)
		if next > i { // a later element: a fresh ladder
			i, retries = next, 0
		}
		if errors.Is(err, ErrSlowDown) {
			err = c.backOff(p, &retries, err)
		}
		if err != nil {
			return i, err
		}
	}
	return n, nil
}

// Get retrieves an object with retry.
func (c *Client) Get(p *des.Proc, bkt, key string) (payload.Payload, error) {
	var out payload.Payload
	err := c.retry(p, func() error {
		var err error
		out, err = c.svc.Get(p, bkt, key, c.FlowCap)
		return err
	})
	return out, err
}

// GetRange retrieves part of an object with retry.
func (c *Client) GetRange(p *des.Proc, bkt, key string, off, n int64) (payload.Payload, error) {
	var out payload.Payload
	err := c.retry(p, func() error {
		var err error
		out, err = c.svc.GetRange(p, bkt, key, off, n, c.FlowCap)
		return err
	})
	return out, err
}

// Head fetches object metadata with retry.
func (c *Client) Head(p *des.Proc, bkt, key string) (Object, error) {
	var out Object
	err := c.retry(p, func() error {
		var err error
		out, err = c.svc.Head(p, bkt, key)
		return err
	})
	return out, err
}

// Delete removes an object with retry.
func (c *Client) Delete(p *des.Proc, bkt, key string) error {
	return c.retry(p, func() error { return c.svc.Delete(p, bkt, key) })
}

// ListAll drains every page of a prefix listing.
func (c *Client) ListAll(p *des.Proc, bkt, prefix string) ([]string, error) {
	var all []string
	startAfter := ""
	for {
		var page ListPage
		err := c.retry(p, func() error {
			var err error
			page, err = c.svc.List(p, bkt, prefix, startAfter, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		all = append(all, page.Keys...)
		if !page.Truncated || len(page.Keys) == 0 {
			return all, nil
		}
		startAfter = page.Keys[len(page.Keys)-1]
	}
}
