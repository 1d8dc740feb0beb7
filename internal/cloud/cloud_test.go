package cloud

import (
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

// TestZones holds placement to its rule: the first configured zone that
// is up, in the configured order; with every zone down, the first zone
// and false, for the provider to decide on.
func TestZones(t *testing.T) {
	for _, tc := range []struct {
		name     string
		zones    []string // SetZones's arguments; nil: the zero value
		fail     []string
		restore  []string
		want     string
		wantUp   bool
		wantDown []string
	}{
		{name: "zero value", want: DefaultZone, wantUp: true},
		{name: "no zones configured", zones: []string{}, want: DefaultZone, wantUp: true},
		{name: "first configured", zones: []string{"b", "a"}, want: "b", wantUp: true},
		{name: "first up wins", zones: []string{"c", "b", "a"}, fail: []string{"c"}, want: "b", wantUp: true, wantDown: []string{"c"}},
		{name: "a zone not configured", zones: []string{"a", "b"}, fail: []string{"x"}, want: "a", wantUp: true, wantDown: []string{"x"}},
		{name: "zero value down", fail: []string{DefaultZone}, want: DefaultZone, wantDown: []string{DefaultZone}},
		{name: "every zone down", zones: []string{"a", "b"}, fail: []string{"b", "a"}, want: "a", wantDown: []string{"a", "b"}},
		{name: "restore reopens", zones: []string{"a", "b"}, fail: []string{"a", "b"}, restore: []string{"b"}, want: "b", wantUp: true, wantDown: []string{"a"}},
		{name: "restore all", zones: []string{"a", "b"}, fail: []string{"a", "b"}, restore: []string{"a", "b"}, want: "a", wantUp: true},
		{name: "restore an up zone", zones: []string{"a"}, restore: []string{"a"}, want: "a", wantUp: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var z Zones
			if tc.zones != nil {
				z.SetZones(tc.zones...)
			}
			for _, zone := range tc.fail {
				z.Fail(zone)
			}
			for _, zone := range tc.restore {
				z.RestoreZone(zone)
			}
			if got, up := z.Pick(); got != tc.want || up != tc.wantUp {
				t.Errorf("Pick = %q, %v; want %q, %v", got, up, tc.want, tc.wantUp)
			}
			down := map[string]bool{}
			for _, zone := range tc.wantDown {
				down[zone] = true
			}
			for _, zone := range []string{DefaultZone, "a", "b", "c", "x"} {
				if z.ZoneDown(zone) != down[zone] {
					t.Errorf("ZoneDown(%q) = %v, want %v", zone, z.ZoneDown(zone), down[zone])
				}
			}
		})
	}
}

// TestLease holds the billed lifetime to its rule: from the create call
// to the stop, or to now while running; nothing before the create call,
// an instant in the future read as now, and a second Stop changing
// nothing.
func TestLease(t *testing.T) {
	const s = time.Second
	for _, tc := range []struct {
		name      string
		requested time.Duration
		stops     []time.Duration // instants Stop is called
		now       time.Duration   // when the bill is read
		at        time.Duration   // BilledDurationAt's argument
		want      time.Duration   // BilledDuration
		wantAt    time.Duration
	}{
		{name: "running bills to now", requested: 2 * s, now: 10 * s, at: 10 * s, want: 8 * s, wantAt: 8 * s},
		{name: "part elapsed by an instant", requested: 2 * s, now: 10 * s, at: 5 * s, want: 8 * s, wantAt: 3 * s},
		{name: "before the create call", requested: 2 * s, now: 10 * s, at: s, want: 8 * s, wantAt: 0},
		{name: "read before the create call", requested: 20 * s, now: 10 * s, at: 10 * s, want: 0, wantAt: 0},
		{name: "future clamped to now", requested: 2 * s, now: 10 * s, at: time.Hour, want: 8 * s, wantAt: 8 * s},
		{name: "stop freezes the bill", requested: 2 * s, stops: []time.Duration{6 * s}, now: 10 * s, at: time.Hour, want: 4 * s, wantAt: 4 * s},
		{name: "before the stop", requested: 2 * s, stops: []time.Duration{6 * s}, now: 10 * s, at: 5 * s, want: 4 * s, wantAt: 3 * s},
		{name: "second stop changes nothing", requested: 2 * s, stops: []time.Duration{6 * s, 8 * s}, now: 10 * s, at: 9 * s, want: 4 * s, wantAt: 4 * s},
		{name: "stopped at the create call", requested: 2 * s, stops: []time.Duration{2 * s}, now: 10 * s, at: 10 * s, want: 0, wantAt: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := des.New(1)
			l := NewLease(sim, tc.requested)
			for _, at := range tc.stops {
				sim.Schedule(at, l.Stop)
			}
			var got, gotAt time.Duration
			var stopped bool
			sim.Schedule(tc.now, func() {
				got, gotAt, stopped = l.BilledDuration(), l.BilledDurationAt(tc.at), l.Stopped()
			})
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if got != tc.want || gotAt != tc.wantAt {
				t.Errorf("BilledDuration = %v, BilledDurationAt(%v) = %v; want %v, %v", got, tc.at, gotAt, tc.want, tc.wantAt)
			}
			if stopped != (len(tc.stops) > 0) {
				t.Errorf("Stopped = %v with %d stops", stopped, len(tc.stops))
			}
		})
	}
}
