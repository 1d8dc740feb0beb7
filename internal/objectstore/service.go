// Package objectstore simulates a cloud object storage service with
// the performance profile of IBM COS / Amazon S3: per-request latency,
// a per-connection bandwidth ceiling, a large (but finite) aggregate
// backend bandwidth shared by all concurrent transfers, and a
// request-rate throttle of a few thousand operations per second.
//
// The paper's whole argument rests on this profile: object storage is
// slow per request but its aggregate bandwidth scales with the number
// of concurrent functions, so shuffling through it beats funnelling
// data through one VM when the right number of functions is used.
//
// All methods must be called from des process context: each takes the
// calling process and blocks it, in virtual time, until the request is
// done. How it blocks is the package's business. A request is a chain
// of events (request.go: throttle, failure draw, request latency, the
// body's transfer for a PUT, a part or a GET) that advances while its
// caller sits parked, once, in des.Proc.Await: the throttle's waits are
// its callbacks, the latency and the transfer the caller's own wakes,
// and the chain resumes the caller from its last. A stream's producing
// side is a state machine of the same kind (stream.go). The caller sees
// none of that, and a callback cannot be a caller. The service needs no
// locking because the simulation kernel runs one process, or one
// callback, at a time.
package objectstore

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"maps"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// Config describes the service's performance profile.
type Config struct {
	// RequestLatency is the fixed service-side latency added to every
	// request (time to first byte, excluding transfer).
	RequestLatency time.Duration
	// PerConnBandwidth caps a single request's transfer rate in
	// bytes/second, like a single HTTP connection's ceiling.
	PerConnBandwidth float64
	// AggregateBandwidth is the backend fabric capacity in
	// bytes/second shared by all in-flight transfers (<= 0: unlimited).
	AggregateBandwidth float64
	// ReadOpsPerSec and WriteOpsPerSec throttle class B and class A
	// request admission ("a few thousand operations/s", §1).
	ReadOpsPerSec  float64
	WriteOpsPerSec float64
	// OpsBurst is the token-bucket burst for both throttles.
	OpsBurst float64
	// ListPageSize bounds keys per List page (default 1000).
	ListPageSize int
	// FailureRate injects ErrSlowDown on requests with this
	// probability (0..1), drawn from the simulation RNG.
	FailureRate float64
}

// DefaultConfig returns a profile resembling a public object storage
// regional endpoint.
func DefaultConfig() Config {
	return Config{
		RequestLatency:     15 * time.Millisecond,
		PerConnBandwidth:   100e6, // 100 MB/s per connection
		AggregateBandwidth: 40e9,  // 40 GB/s backend fabric
		ReadOpsPerSec:      3000,  // class B throttle
		WriteOpsPerSec:     1500,  // class A throttle
		OpsBurst:           100,
		ListPageSize:       1000,
		FailureRate:        0,
	}
}

func (c Config) validate() error {
	if c.RequestLatency < 0 {
		return fmt.Errorf("objectstore: negative RequestLatency %v", c.RequestLatency)
	}
	if c.PerConnBandwidth <= 0 {
		return fmt.Errorf("objectstore: PerConnBandwidth must be positive, got %g", c.PerConnBandwidth)
	}
	if c.ReadOpsPerSec <= 0 || c.WriteOpsPerSec <= 0 {
		return fmt.Errorf("objectstore: ops rates must be positive")
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return fmt.Errorf("objectstore: FailureRate %g out of [0,1)", c.FailureRate)
	}
	return nil
}

// Object is a stored object's metadata, built when it is asked for.
// Its payload travels with it for ETag, but no caller can read it: the
// bytes take a GET.
type Object struct {
	Key          string
	Size         int64
	LastModified time.Duration
	pl           payload.Payload
}

// ETag is the object's change detector (see etag), computed from its
// bytes when called; the zero Object has none.
func (o Object) ETag() string {
	if o.pl == nil {
		return ""
	}
	return etag(o.pl)
}

// stored is what a bucket keeps under a key: only what cannot be worked
// out. The key is the map's, the size the payload's, and the ETag a
// function of its bytes.
type stored struct {
	payload      payload.Payload
	lastModified time.Duration
}

type bucket struct {
	name    string
	objects map[string]stored
	// room and peak are what objects is known to hold without growing:
	// the size Grow last made it for, and the most objects it has held
	// before a Delete (a map never shrinks).
	room, peak int
}

func newBucket(name string) *bucket {
	return &bucket{name: name, objects: make(map[string]stored)}
}

// Service is a simulated object storage endpoint.
type Service struct {
	sim       *des.Sim
	cfg       Config
	link      *des.Link
	readTB    *des.TokenBucket
	writeTB   *des.TokenBucket
	buckets   map[string]*bucket
	uploads   map[string]*multipartUpload
	uploadSeq int64
	streamSeq int64
	// openHead/openTail list, in open order, the streams whose producing
	// side has not finished (see OpenStreams).
	openHead, openTail *ClientStream
	metrics            des.Ledger[Metrics]

	// curBytes / lastAccrue drive the stored-volume time integral.
	curBytes   int64
	lastAccrue time.Duration

	// brownout is a transient elevated failure rate layered over
	// cfg.FailureRate (see SetBrownout); 0 when healthy. brownoutGen
	// counts SetBrownout calls so a scheduled restore can tell whether
	// a newer window opened since it was armed.
	brownout    float64
	brownoutGen uint64

	// zone labels the service's bandwidth pool's home placement domain
	// — the zone whose outage browns out this endpoint.
	zone string
}

// New builds a Service on sim with the given profile.
func New(sim *des.Sim, cfg Config) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ListPageSize <= 0 {
		cfg.ListPageSize = 1000
	}
	if cfg.OpsBurst < 1 {
		cfg.OpsBurst = 1
	}
	return &Service{
		sim:     sim,
		cfg:     cfg,
		link:    des.NewLink(sim, cfg.AggregateBandwidth),
		readTB:  des.NewTokenBucket(sim, cfg.ReadOpsPerSec, cfg.OpsBurst),
		writeTB: des.NewTokenBucket(sim, cfg.WriteOpsPerSec, cfg.OpsBurst),
		buckets: make(map[string]*bucket),
	}, nil
}

// Config returns the service profile.
func (s *Service) Config() Config { return s.cfg }

// Metrics returns a snapshot of the accumulated billing counters,
// with the stored-volume integral brought up to the current instant.
func (s *Service) Metrics() Metrics {
	s.accrue()
	return s.metrics.Total
}

// Ledger returns the billing counters, per scope as well as in total. A
// scope's ByteSeconds stay 0: the stored volume is no request's doing.
func (s *Service) Ledger() *des.Ledger[Metrics] { return &s.metrics }

// StoredBytes reports the currently stored volume.
func (s *Service) StoredBytes() int64 { return s.curBytes }

// accrue folds the stored volume since the last mutation into the
// ByteSeconds integral.
func (s *Service) accrue() {
	now := s.sim.Now()
	if now > s.lastAccrue {
		s.metrics.Total.ByteSeconds += float64(s.curBytes) * (now - s.lastAccrue).Seconds()
		s.lastAccrue = now
	}
}

// adjustStored changes the stored volume by delta, accruing first so
// the integral charges the old volume up to now.
func (s *Service) adjustStored(delta int64) {
	s.accrue()
	s.curBytes += delta
}

// CreateBucket makes a bucket. It is a class A operation.
func (s *Service) CreateBucket(p *des.Proc, name string) error {
	if err := s.admit(p, s.writeTB); err != nil {
		return err
	}
	if _, ok := s.buckets[name]; ok {
		return ErrBucketExists
	}
	s.buckets[name] = newBucket(name)
	return nil
}

// Put stores an object, transferring its bytes over the shared
// backend. flowCap > 0 lowers the per-connection bandwidth ceiling for
// this request when it is the tighter of the two (used to model
// constrained NICs); a looser one leaves the ceiling as it is.
func (s *Service) Put(p *des.Proc, bkt, key string, pl payload.Payload, flowCap float64) error {
	r := s.request(p, putObjects, s.writeTB, bkt, 1)
	r.key, r.body, r.flowCap = key, pl, flowCap
	_, err := r.run()
	r.release()
	return err
}

// putEach stores each(from), ..., each(n-1) in bkt one after another,
// as that many Puts in a loop would, with the caller parked once for
// the lot (see request.go). It returns the first element not stored and
// the error that stopped there, or n and nil. each is called in event
// context, once per attempt at an element, and must not block.
func (s *Service) putEach(p *des.Proc, bkt string, from, n int, each func(i int) (string, payload.Payload), flowCap float64) (int, error) {
	r := s.request(p, putObjects, s.writeTB, bkt, n)
	r.i, r.each, r.flowCap = from, each, flowCap
	next, err := r.run()
	r.release()
	return next, err
}

// keep makes pl the object under key in b, charging the stored volume.
func (s *Service) keep(b *bucket, key string, pl payload.Payload) {
	delta := pl.Size()
	if old, ok := b.objects[key]; ok {
		delta -= old.payload.Size()
	}
	s.adjustStored(delta)
	b.objects[key] = stored{payload: pl, lastModified: s.sim.Now()}
}

// Grow makes room in bkt for n more objects, as slices.Grow does for a
// slice: when its map cannot already hold them, the objects move to one
// made for at least n more, so that the next n new keys store without a
// rehash. A caller that knows how many objects it will write (a sort
// knows all its run and output keys before its first PUT) grows the
// bucket once instead of the map doubling its way there. Grow is not a
// request: no admission, meter, draw or event, and nothing any request
// answers changes. A bucket that does not exist is left so.
func (s *Service) Grow(bkt string, n int) {
	b, ok := s.buckets[bkt]
	if !ok || len(b.objects)+n <= max(len(b.objects), b.room, b.peak) {
		return
	}
	// Twice the objects at least, as append grows, so that a bucket grown
	// for one job after another still copies each object a bounded
	// number of times.
	b.room = max(len(b.objects)+n, 2*len(b.objects))
	objects := make(map[string]stored, b.room)
	maps.Copy(objects, b.objects)
	b.objects = objects
}

// Get retrieves a whole object (class B).
func (s *Service) Get(p *des.Proc, bkt, key string, flowCap float64) (payload.Payload, error) {
	r := s.request(p, getObject, s.readTB, bkt, 1)
	r.key, r.flowCap = key, flowCap
	return s.got(r)
}

// GetRange retrieves bytes [off, off+n) of an object (class B).
func (s *Service) GetRange(p *des.Proc, bkt, key string, off, n int64, flowCap float64) (payload.Payload, error) {
	r := s.request(p, getRange, s.readTB, bkt, 1)
	r.key, r.off, r.length, r.flowCap = key, off, n, flowCap
	return s.got(r)
}

// got runs a GET's request and returns what it read, nothing if it
// failed (every failure comes before the chain sets body).
func (s *Service) got(r *request) (payload.Payload, error) {
	_, err := r.run()
	pl := r.body
	r.release()
	return pl, err
}

// Head returns object metadata (class B). Its ETag is computed only if
// the caller asks for it.
func (s *Service) Head(p *des.Proc, bkt, key string) (Object, error) {
	if err := s.admit(p, s.readTB); err != nil {
		return Object{}, err
	}
	return s.find(bkt, key)
}

// Delete removes an object. Deleting an absent key succeeds, like S3.
func (s *Service) Delete(p *des.Proc, bkt, key string) error {
	// Deletes are not throttled: the draw and the latency are the whole
	// admission, and one sleep needs no chain.
	failed := s.drawFailure()
	p.Sleep(s.cfg.RequestLatency)
	if failed {
		s.metrics.Charge(p, countThrottled)
		return ErrSlowDown
	}
	s.metrics.Charge(p, func(m *Metrics) { m.DeleteOps++ })
	b, ok := s.buckets[bkt]
	if !ok {
		return ErrNoSuchBucket
	}
	if old, ok := b.objects[key]; ok {
		s.adjustStored(-old.payload.Size())
		b.peak = max(b.peak, len(b.objects))
	}
	delete(b.objects, key)
	return nil
}

// ListPage is one page of a List result.
type ListPage struct {
	Keys []string
	// Truncated reports whether more keys follow; pass the last key as
	// startAfter to continue.
	Truncated bool
}

// List returns up to max keys with the given prefix, lexicographically
// after startAfter (class A). max <= 0 uses the configured page size.
func (s *Service) List(p *des.Proc, bkt, prefix, startAfter string, max int) (ListPage, error) {
	if err := s.admit(p, s.writeTB); err != nil {
		return ListPage{}, err
	}
	b, ok := s.buckets[bkt]
	if !ok {
		return ListPage{}, ErrNoSuchBucket
	}
	if max <= 0 || max > s.cfg.ListPageSize {
		max = s.cfg.ListPageSize
	}
	keys := make([]string, 0, len(b.objects))
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) && k > startAfter {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	page := ListPage{}
	if len(keys) > max {
		page.Keys = keys[:max]
		page.Truncated = true
	} else {
		page.Keys = keys
	}
	return page, nil
}

// SetBrownout sets a transient failure rate for the service, modeling
// a degraded availability window (an AZ brownout): while set, requests
// fail with ErrSlowDown at max(rate, Config.FailureRate). Pass 0 to
// clear. Rates outside [0,1) are clamped.
func (s *Service) SetBrownout(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate >= 1 {
		rate = 0.999
	}
	s.brownout = rate
	s.brownoutGen++
}

// Brownout reports the current transient failure rate.
func (s *Service) Brownout() float64 { return s.brownout }

// BrownoutGen reports how many times SetBrownout has been called.
// A scheduled restore captures the generation at window open and only
// clears the rate if no newer call has happened since — the guard that
// keeps overlapping windows from restoring each other.
func (s *Service) BrownoutGen() uint64 { return s.brownoutGen }

// SetZone labels the service's bandwidth pool with its home placement
// domain (defaults to empty: zone-agnostic).
func (s *Service) SetZone(zone string) { s.zone = zone }

// Zone reports the service's home placement domain.
func (s *Service) Zone() string { return s.zone }

// drawFailure decides whether a request is throttled. It draws from the
// simulation's RNG only while a failure rate is in force.
func (s *Service) drawFailure() bool {
	rate := s.cfg.FailureRate
	if s.brownout > rate {
		rate = s.brownout
	}
	return rate > 0 && s.sim.Rand().Float64() < rate
}

// find is the lookup itself, free and instantaneous.
func (s *Service) find(bkt, key string) (Object, error) {
	b, ok := s.buckets[bkt]
	if !ok {
		return Object{}, ErrNoSuchBucket
	}
	st, ok := b.objects[key]
	if !ok {
		return Object{}, &KeyError{Bucket: bkt, Key: key}
	}
	return Object{Key: key, Size: st.payload.Size(), LastModified: st.lastModified, pl: st.payload}, nil
}

// connCap is one request's rate ceiling: the per-connection bandwidth,
// or the caller's flowCap when that is tighter.
func (s *Service) connCap(flowCap float64) float64 {
	if flowCap > 0 && flowCap < s.cfg.PerConnBandwidth {
		return flowCap
	}
	return s.cfg.PerConnBandwidth
}

// OpenStreams names, sorted, the streams whose producing side has not
// finished: opened by GetStream and not yet delivered in full, failed,
// or closed. While the simulation runs that is every stream in
// progress. Once it has drained it is the streams somebody abandoned,
// each stopped at a full prefetch window with no consumer to reopen it,
// and a driver must treat a non-empty list as the error the kernel's
// deadlock report used to be when a process produced the chunks
// (calib.Rig.Run does).
func (s *Service) OpenStreams() []string {
	var names []string
	for st := s.openHead; st != nil; st = st.nextOpen {
		names = append(names, streamName(st.seq, st.bkt.name, st.key, st.base))
	}
	sort.Strings(names)
	return names
}

func (s *Service) linkStream(st *ClientStream) {
	if s.openTail == nil {
		s.openHead = st
	} else {
		s.openTail.nextOpen, st.prevOpen = st, s.openTail
	}
	s.openTail = st
}

func (s *Service) unlinkStream(st *ClientStream) {
	if st.prevOpen == nil {
		s.openHead = st.nextOpen
	} else {
		st.prevOpen.nextOpen = st.nextOpen
	}
	if st.nextOpen == nil {
		s.openTail = st.prevOpen
	} else {
		st.nextOpen.prevOpen = st.prevOpen
	}
	st.prevOpen, st.nextOpen = nil, nil
}

// castagnoli is the CRC32C table; hash/crc32 computes it in hardware
// on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// etag is a change detector, never an integrity proof: equal bytes get
// equal tags however they were uploaded, and a real payload's tag
// ("<crc32c>-<length>", the checksum S3-compatible stores publish as
// x-amz-checksum-crc32c) cannot collide with a sized payload's (16 hex
// digits of FNV-1a over "sized:<length>").
func etag(pl payload.Payload) string {
	if b, ok := pl.Bytes(); ok {
		return fmt.Sprintf("%08x-%d", crc32.Checksum(b, castagnoli), len(b))
	}
	// FNV-1a by hand on the stack: hash/fnv plus two fmt calls cost four
	// allocations where the string is one.
	var buf [32]byte
	h := uint64(fnvOffset64)
	for _, c := range strconv.AppendInt(append(buf[:0], "sized:"...), pl.Size(), 10) {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h)
	var digits [16]byte
	hex.Encode(digits[:], sum[:])
	return string(digits[:])
}

// The 64-bit FNV-1a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)
