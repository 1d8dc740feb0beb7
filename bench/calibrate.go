package main

import (
	"sort"
	"time"
)

// The calibration spin is a fixed amount of work whose wall time tracks
// whatever the box is doing to us right now. On the shared 2-vCPU box
// this was written on, execution speed sits in one of a few regimes
// (the same loop took 9.2, 11.7 or 12.8 ms) and steps between them
// every few seconds, so a rep's raw wall time moves by a third while
// nothing about the program changed. A rep is therefore cut into
// segments of at least minSegment at the boundaries its workload offers
// (between pipeline runs, chaos cells, sweep points, event-loop
// slices), each segment is divided by the mean of the spins on either
// side of it, and the quotients are summed. The unit of host_norm is
// "spins": how many calibration spins the rep was worth.
//
// One spin is spinChunks chunks, each an xorshift fill and comparison
// sort of 64k words (branches, calls through a closure, cache-resident
// data) followed by a stride walk over a buffer larger than the
// last-level cache (real-bytes is memory-bound where the sized
// workloads are not). The spin reports the median chunk, scaled, so a
// stray interrupt inside one chunk does not move it.
const (
	spinWords     = 1 << 16
	spinWalkBytes = 48 << 20
	spinStride    = 64 / 8 // one word per cache line
	spinChunks    = 3
	minSegment    = 80 * time.Millisecond
)

// spinner owns the spin's buffers so that the spin allocates next to
// nothing and cannot disturb a rep's alloc_mb.
type spinner struct {
	words  []uint64
	walk   []uint64
	chunks [spinChunks]time.Duration
	x      uint64
	sink   uint64
}

func newSpinner() *spinner {
	return &spinner{
		words: make([]uint64, spinWords),
		walk:  make([]uint64, spinWalkBytes/8),
		x:     0x9E3779B97F4A7C15,
	}
}

// spin does the fixed work once and returns how long it took.
func (s *spinner) spin() time.Duration {
	for c := range s.chunks {
		start := time.Now()
		x := s.x
		for i := range s.words {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s.words[i] = x
		}
		s.x = x
		w := s.words
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		acc := w[len(w)/2]
		for i := c % spinStride; i < len(s.walk); i += spinStride {
			acc += s.walk[i]
			s.walk[i] = acc + uint64(i)
		}
		s.sink += acc
		s.chunks[c] = time.Since(start)
	}
	sorted := s.chunks
	sort.Slice(sorted[:], func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[spinChunks/2] * spinChunks
}

// hostClock accumulates one rep's host time, raw and normalised.
type hostClock struct {
	sp       *spinner
	lastSpin time.Duration
	segStart time.Time
	wall     time.Duration // sum of segments; spins excluded
	norm     float64       // sum of segment / mean(adjacent spins)
	spins    []float64     // every spin taken, seconds
	// spent is the host time all spins so far really took: the tracer
	// subtracts it, so spans are on a time axis without the spins.
	spent time.Duration
}

// start takes the opening spin and begins the first segment.
func (c *hostClock) start() {
	c.wall, c.norm = 0, 0
	c.lastSpin = c.takeSpin()
	c.segStart = time.Now()
}

func (c *hostClock) takeSpin() time.Duration {
	start := time.Now()
	d := c.sp.spin()
	c.spent += time.Since(start)
	c.spins = append(c.spins, d.Seconds())
	return d
}

// tick is called by the workload wherever a rep may be cut. It closes
// the running segment if that has lasted long enough to be worth a
// spin. A nil clock (tests, probes) ignores ticks.
func (c *hostClock) tick() {
	if c == nil || time.Since(c.segStart) < minSegment {
		return
	}
	c.cut()
	c.segStart = time.Now()
}

// stop closes the last segment.
func (c *hostClock) stop() { c.cut() }

func (c *hostClock) cut() {
	seg := time.Since(c.segStart)
	spin := c.takeSpin()
	c.wall += seg
	c.norm += normalise(seg, c.lastSpin, spin)
	c.lastSpin = spin
}

// normalise expresses a stretch of wall time in spins.
func normalise(seg, spinBefore, spinAfter time.Duration) float64 {
	mean := (spinBefore.Seconds() + spinAfter.Seconds()) / 2
	if mean <= 0 {
		return 0
	}
	return seg.Seconds() / mean
}
