package autoplan

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzHistoryUnmarshal feeds the planner-history decoder hostile JSON.
// Whatever it accepts must be a state Record could have written: no
// negative counts, every calibration factor finite and inside the clamp,
// and unchanged by a save/load cycle.
func FuzzHistoryUnmarshal(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"vm":{"n":3,"logTime":0.6,"costN":2,"logCost":-0.2}}`,
		`{"object-storage":{"n":1,"logTime":1e308,"costN":1,"logCost":-1e308},"memcache":{"n":0,"logTime":0,"costN":0,"logCost":0}}`,
		`{"vm":{"n":-2,"logTime":3,"costN":-1,"logCost":0}}`,
		`{"hierarchical":{"n":0,"logTime":0.5}}`,
		`{"vm":{"n":9223372036854775807,"logTime":1},"memcache":{"n":9223372036854775807,"logTime":1}}`,
		`{"warp-drive":{"n":1,"logTime":0.1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h History
		if err := json.Unmarshal(data, &h); err != nil {
			return
		}
		for _, s := range []Strategy{ObjectStorage, Hierarchical, CacheBacked, VMStaged} {
			if n := h.Observations(s); n < 0 {
				t.Fatalf("%v: %d observations", s, n)
			}
			for _, factor := range []float64{h.TimeFactor(s), h.CostFactor(s)} {
				if math.IsNaN(factor) || factor < minFactor || factor > maxFactor {
					t.Fatalf("%v: factor %g outside [%g, %g]", s, factor, minFactor, maxFactor)
				}
			}
		}
		if h.Len() < 0 {
			t.Fatalf("Len = %d", h.Len())
		}
		saved, err := json.Marshal(&h)
		if err != nil {
			t.Fatalf("accepted history does not marshal: %v", err)
		}
		var again History
		if err := json.Unmarshal(saved, &again); err != nil {
			t.Fatalf("saved history does not load: %v\n%s", err, saved)
		}
		resaved, err := json.Marshal(&again)
		if err != nil || !bytes.Equal(saved, resaved) {
			t.Fatalf("save/load changed the history (%v):\n%s\n%s", err, saved, resaved)
		}
	})
}
