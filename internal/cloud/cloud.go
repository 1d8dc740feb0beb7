// Package cloud holds what the provisioned-capacity providers share: a
// VM instance (internal/vm) and a cache cluster (internal/memcache) are
// each billed for a Lease and placed by Zones. Each provider keeps its
// own policy: what a zone outage does to what runs there, and what
// provisioning does while every zone is down.
package cloud

import (
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

// DefaultZone is the single placement domain of a provider that has not
// been configured with an explicit zone list.
const DefaultZone = "zone-a"

// Zones is a provider's placement domains, in order of preference, and
// the ones currently failed. The zero value is DefaultZone, up.
type Zones struct {
	zones     []string
	downZones map[string]bool
}

// SetZones configures the placement domains new capacity lands in (none:
// DefaultZone). Everything lands in zones[0] until an outage forces it
// elsewhere, so placement stays deterministic.
func (z *Zones) SetZones(zones ...string) {
	z.zones = append([]string(nil), zones...)
}

// ZoneDown reports whether a zone is currently failed.
func (z *Zones) ZoneDown(zone string) bool { return z.downZones[zone] }

// Fail marks a zone down until RestoreZone: a provider's FailZone, which
// decides what becomes of the capacity running there, calls it.
func (z *Zones) Fail(zone string) {
	if z.downZones == nil {
		z.downZones = map[string]bool{}
	}
	z.downZones[zone] = true
}

// RestoreZone reopens a failed zone for placement. What the outage took
// stays gone.
func (z *Zones) RestoreZone(zone string) { delete(z.downZones, zone) }

// Pick returns the first zone still up and true, or, while every zone is
// down, the first zone and false.
func (z *Zones) Pick() (string, bool) {
	zones := z.zones
	if len(zones) == 0 {
		zones = []string{DefaultZone}
	}
	for _, zone := range zones {
		if !z.downZones[zone] {
			return zone, true
		}
	}
	return zones[0], false
}

// Lease is the billed lifetime of provisioned capacity: providers bill
// from the create call, not from readiness, to the stop.
type Lease struct {
	sim       *des.Sim
	requested time.Duration // the create call: billing starts here
	stoppedAt time.Duration
	stopped   bool
}

// NewLease returns a running lease whose create call was at requested.
func NewLease(sim *des.Sim, requested time.Duration) Lease {
	return Lease{sim: sim, requested: requested}
}

// Stop ends the lease; billing stops here. Stop is idempotent.
func (l *Lease) Stop() {
	if l.stopped {
		return
	}
	l.stopped = true
	l.stoppedAt = l.sim.Now()
}

// Stopped reports whether the lease has been stopped.
func (l *Lease) Stopped() bool { return l.stopped }

// BilledDuration reports the billable lifetime: create call to stop, or
// to now if still running.
func (l *Lease) BilledDuration() time.Duration {
	return l.BilledDurationAt(l.sim.Now())
}

// BilledDurationAt is BilledDuration as of the instant at: the part of
// the billable lifetime that had elapsed by then (all of it when at is
// in the future, none before the create call).
func (l *Lease) BilledDurationAt(at time.Duration) time.Duration {
	end := min(at, l.sim.Now())
	if l.stopped {
		end = min(end, l.stoppedAt)
	}
	return max(end-l.requested, 0)
}
