package chaos

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

// fuzzEventBytes is one encoded event: At (8), Kind (1), Node (2),
// Duration (8), Rate as float64 bits (8), zone selector (1).
const fuzzEventBytes = 28

// decodePlan cuts data into events, every field taken as it comes:
// negative times, NaN rates, unknown kinds and all.
func decodePlan(data []byte) *Plan {
	plan := &Plan{}
	for ; len(data) >= fuzzEventBytes && len(plan.Events) < 64; data = data[fuzzEventBytes:] {
		ev := Event{
			At:       time.Duration(binary.LittleEndian.Uint64(data[0:])),
			Kind:     Kind(int8(data[8])),
			Node:     int(int16(binary.LittleEndian.Uint16(data[9:]))),
			Duration: time.Duration(binary.LittleEndian.Uint64(data[11:])),
			Rate:     math.Float64frombits(binary.LittleEndian.Uint64(data[19:])),
		}
		if data[27]&1 == 1 {
			ev.Zone = "zone-a"
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan
}

func encodeEvent(ev Event) []byte {
	b := make([]byte, fuzzEventBytes)
	binary.LittleEndian.PutUint64(b[0:], uint64(ev.At))
	b[8] = byte(ev.Kind)
	binary.LittleEndian.PutUint16(b[9:], uint16(ev.Node))
	binary.LittleEndian.PutUint64(b[11:], uint64(ev.Duration))
	binary.LittleEndian.PutUint64(b[19:], math.Float64bits(ev.Rate))
	if ev.Zone != "" {
		b[27] = 1
	}
	return b
}

// FuzzPlanValidate feeds Validate and Arm hostile schedules. Neither may
// panic; a rejection is an *EventError naming an event of the plan and
// unwrapping to one of the sentinels; Arm's verdict is Validate's; and a
// plan that is accepted holds what Validate promises, and fires every
// event against live (empty) targets without panicking.
func FuzzPlanValidate(f *testing.F) {
	var all []byte
	for _, ev := range []Event{
		{At: 2 * time.Minute, Kind: PreemptVM},
		{At: time.Minute, Kind: KillCacheNode, Node: 3},
		{At: time.Second, Kind: StoreBrownout, Rate: 0.5, Duration: 5 * time.Second},
		{At: 0, Kind: ZoneOutage, Zone: "zone-a", Rate: 0.25, Duration: time.Minute},
		{At: -1, Kind: PreemptVM},
		{At: 1, Kind: KillCacheNode, Node: -1},
		{At: 1, Kind: StoreBrownout, Rate: math.NaN(), Duration: 1},
		{At: 1, Kind: StoreBrownout, Rate: 2, Duration: 1},
		{At: 1, Kind: ZoneOutage, Duration: time.Second},
		{At: math.MaxInt64, Kind: ZoneOutage, Zone: "zone-a", Duration: math.MaxInt64, Rate: 1},
		{At: 1, Kind: Kind(99)},
	} {
		f.Add(encodeEvent(ev))
		all = append(all, encodeEvent(ev)...)
	}
	f.Add(all)
	sentinels := []error{ErrNegativeTime, ErrBadRate, ErrBadDuration, ErrBadNode, ErrBadZone}
	f.Fuzz(func(t *testing.T, data []byte) {
		plan := decodePlan(data)
		verr := plan.Validate()
		sim := des.New(1)
		armed, aerr := plan.Arm(sim, testTargets(t, sim))
		if (verr == nil) != (aerr == nil) {
			t.Fatalf("Validate says %v, Arm says %v", verr, aerr)
		}
		if verr != nil {
			var ee *EventError
			if !errors.As(verr, &ee) || !errors.As(aerr, &ee) {
				t.Fatalf("rejections are not *EventError: %v / %v", verr, aerr)
			}
			if ee.Index < 0 || ee.Index >= len(plan.Events) {
				t.Fatalf("EventError names event %d of %d", ee.Index, len(plan.Events))
			}
			known := false
			for _, s := range sentinels {
				known = known || errors.Is(verr, s)
			}
			if !known {
				t.Fatalf("rejection %v unwraps to no sentinel", verr)
			}
			if armed != nil {
				t.Fatal("a rejected plan was armed")
			}
			return
		}
		for i, ev := range plan.Events {
			if ev.At < 0 || !(ev.Rate >= 0 && ev.Rate <= 1) {
				t.Fatalf("event %d accepted with At %v, Rate %v", i, ev.At, ev.Rate)
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("firing an accepted plan: %v", err)
		}
		if got := len(armed.Fired()); got != len(plan.Events) {
			t.Fatalf("%d of %d events fired", got, len(plan.Events))
		}
	})
}
