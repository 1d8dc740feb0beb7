package main

import (
	"testing"
	"time"
)

func TestNormalise(t *testing.T) {
	// A 3 s stretch between a 100 ms and a 200 ms spin is worth 20 spins
	// of the 150 ms the box was averaging.
	if got := normalise(3*time.Second, 100*time.Millisecond, 200*time.Millisecond); !near(got, 20) {
		t.Errorf("normalise = %v, want 20", got)
	}
	// The same work on a box running half as fast reads the same.
	if got := normalise(6*time.Second, 200*time.Millisecond, 400*time.Millisecond); !near(got, 20) {
		t.Errorf("normalise at half speed = %v, want 20", got)
	}
	if got := normalise(time.Second, 0, 0); got != 0 {
		t.Errorf("normalise with no spin = %v, want 0", got)
	}
}

func TestHostClockSumsSegments(t *testing.T) {
	clk := &hostClock{sp: newSpinner()}
	clk.start()
	clk.tick() // too soon after start: no cut
	if len(clk.spins) != 1 {
		t.Fatalf("a tick inside minSegment took a spin: %d spins", len(clk.spins))
	}
	time.Sleep(minSegment + 10*time.Millisecond)
	clk.tick()
	time.Sleep(5 * time.Millisecond)
	clk.stop()
	if len(clk.spins) != 3 {
		t.Fatalf("spins = %d, want 3 (start, one cut, stop)", len(clk.spins))
	}
	slept := minSegment + 15*time.Millisecond
	if clk.wall < slept || clk.wall > slept+200*time.Millisecond {
		t.Errorf("wall = %v, want about %v: spins must not count", clk.wall, slept)
	}
	if clk.norm <= 0 {
		t.Errorf("norm = %v, want positive", clk.norm)
	}
	var nilClock *hostClock
	nilClock.tick() // must not panic: probes and set-up pass no clock
}

func TestSeedFor(t *testing.T) {
	if got := seedFor(0, streamData, 7); got != 7 {
		t.Errorf("seed 0 must be canonical: got %d, want 7", got)
	}
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 50; seed++ {
		for _, stream := range []int64{streamProfile, streamData, streamArrivals} {
			s := seedFor(seed, stream, 7)
			if s <= 0 {
				t.Fatalf("seedFor(%d, %d) = %d, want positive", seed, stream, s)
			}
			if seen[s] {
				t.Fatalf("seedFor(%d, %d) = %d collides", seed, stream, s)
			}
			seen[s] = true
			if s != seedFor(seed, stream, 99) {
				t.Fatalf("seedFor(%d, %d) depends on the canonical value", seed, stream)
			}
		}
	}
}

func TestDiffering(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2}
	if d := differing(a, map[string]float64{"y": 2, "x": 1}); d != "" {
		t.Errorf("equal sets differ: %q", d)
	}
	if d := differing(a, map[string]float64{"x": 1, "y": 3}); d != "y (2 vs 3)" {
		t.Errorf("differing = %q, want y (2 vs 3)", d)
	}
	if d := differing(a, map[string]float64{"x": 1, "y": 2, "z": 0.5}); d != "z (0 vs 0.5)" {
		t.Errorf("differing with an extra key = %q, want z (0 vs 0.5)", d)
	}
}
