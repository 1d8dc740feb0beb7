package calib

import (
	"bytes"
	"testing"
)

// FuzzCalibState feeds the saved-session loader hostile bytes. Load and
// State.Rig must each answer with an error or with something usable: a
// rig they hand back runs an empty simulation to its end, and the state
// saves again. Neither may panic or hang, whatever the profile claims
// about rates, sizes, zones or the VM catalogue.
func FuzzCalibState(f *testing.F) {
	for _, st := range []State{
		{Profile: Paper()},
		{Profile: Paper(), History: seededHistory()},
	} {
		var buf bytes.Buffer
		if err := Save(&buf, st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, seed := range []string{
		`{}`,
		`{"profile":{}}`,
		`{"profile":{"Zones":["a","a",""]},"history":{}}`,
		`{"profile":{"VMTypes":[{}]}}`,
		`{"profile":{"Store":{"AggregateBandwidth":-1e308,"ReadOpsPerSec":1e-320}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		rig, err := st.Rig()
		if err != nil {
			return
		}
		if err := rig.Run(); err != nil {
			t.Fatalf("a rig with nothing to do did not run to its end: %v", err)
		}
		if err := Save(&bytes.Buffer{}, st); err != nil {
			t.Fatalf("a state that loaded does not save: %v", err)
		}
	})
}
