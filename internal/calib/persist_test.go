package calib

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
)

func seededHistory() *autoplan.History {
	h := autoplan.NewHistory()
	h.Record(autoplan.Observation{
		Strategy:      autoplan.ObjectStorage,
		PredictedTime: 10 * time.Second, ActualTime: 13 * time.Second,
		PredictedUSD: 0.010, ActualUSD: 0.012,
	})
	h.Record(autoplan.Observation{
		Strategy:      autoplan.ObjectStorage,
		PredictedTime: 20 * time.Second, ActualTime: 21 * time.Second,
	})
	h.Record(autoplan.Observation{
		Strategy:      autoplan.Hierarchical,
		PredictedTime: 8 * time.Second, ActualTime: 6 * time.Second,
		PredictedUSD: 0.020, ActualUSD: 0.015,
	})
	return h
}

// TestStateRoundTrip: Save → Load must reproduce the profile and every
// calibration factor exactly — calibration survives process restarts.
func TestStateRoundTrip(t *testing.T) {
	st := State{Profile: Paper(), History: seededHistory()}
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Profile.Name != st.Profile.Name ||
		got.Profile.Store != st.Profile.Store ||
		got.Profile.Faas != st.Profile.Faas ||
		got.Profile.Cache != st.Profile.Cache ||
		got.Profile.Prices != st.Profile.Prices ||
		got.Profile.PartitionBps != st.Profile.PartitionBps {
		t.Fatalf("profile did not round-trip:\ngot  %+v\nwant %+v", got.Profile, st.Profile)
	}
	for _, s := range []autoplan.Strategy{
		autoplan.ObjectStorage, autoplan.Hierarchical, autoplan.CacheBacked, autoplan.VMStaged,
	} {
		if got.History.Observations(s) != st.History.Observations(s) {
			t.Errorf("%v: observations %d, want %d", s,
				got.History.Observations(s), st.History.Observations(s))
		}
		if tf, want := got.History.TimeFactor(s), st.History.TimeFactor(s); math.Abs(tf-want) > 1e-12 {
			t.Errorf("%v: time factor %g, want %g", s, tf, want)
		}
		if cf, want := got.History.CostFactor(s), st.History.CostFactor(s); math.Abs(cf-want) > 1e-12 {
			t.Errorf("%v: cost factor %g, want %g", s, cf, want)
		}
	}
	// Merging new observations into the reloaded history must continue
	// the geometric mean from the exact saved sums, not from factors.
	got.History.Record(autoplan.Observation{
		Strategy:      autoplan.ObjectStorage,
		PredictedTime: 10 * time.Second, ActualTime: 13 * time.Second,
	})
	st.History.Record(autoplan.Observation{
		Strategy:      autoplan.ObjectStorage,
		PredictedTime: 10 * time.Second, ActualTime: 13 * time.Second,
	})
	if tf, want := got.History.TimeFactor(autoplan.ObjectStorage),
		st.History.TimeFactor(autoplan.ObjectStorage); math.Abs(tf-want) > 1e-12 {
		t.Errorf("post-merge time factor %g, want %g", tf, want)
	}
}

func TestStateFileRoundTripAndRig(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, State{Profile: Local(), History: seededHistory()}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	st, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rig, err := st.Rig()
	if err != nil {
		t.Fatalf("Rig: %v", err)
	}
	// The strategies the rig builds must plan with the persisted calibration.
	if rig.History != st.History || rig.AutoStrategy(autoplan.Objective{}).Env.History != st.History {
		t.Fatal("rig not seeded with the persisted history")
	}
	if f := rig.History.TimeFactor(autoplan.Hierarchical); f >= 1 {
		t.Fatalf("persisted hierarchical time factor %g not applied (want < 1)", f)
	}
}

func TestStateLoadNoHistory(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, State{Profile: Local()}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	st, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.History != nil {
		t.Fatalf("absent history loaded as %v", st.History)
	}
	if _, err := st.Rig(); err != nil {
		t.Fatalf("Rig without history: %v", err)
	}
}

func TestStateLoadRejectsUnknownFamily(t *testing.T) {
	bad := `{"profile": {}, "history": {"warp-drive": {"n": 1, "logTime": 0.1}}}`
	if _, err := Load(bytes.NewReader([]byte(bad))); err == nil {
		t.Fatal("unknown strategy family accepted")
	}
}

// TestStateLoadRejectsImpossibleCounts: a history no sequence of Record
// calls writes must not load. A negative count flips the sign of the
// mean log-ratio, so "ran 20x slower" would calibrate as "5x faster".
func TestStateLoadRejectsImpossibleCounts(t *testing.T) {
	for name, family := range map[string]string{
		"negative counts":       `{"n": -2, "logTime": 3, "costN": -1, "logCost": 0}`,
		"negative cost count":   `{"n": 2, "logTime": 3, "costN": -1, "logCost": 0}`,
		"count that wraps Len":  `{"n": 9223372036854775807, "logTime": 1}`,
		"time sum over nothing": `{"n": 0, "logTime": 0.5}`,
		"cost sum over nothing": `{"n": 1, "logTime": 0.5, "costN": 0, "logCost": -1}`,
	} {
		_, err := Load(strings.NewReader(`{"profile": {}, "history": {"vm": ` + family + `}}`))
		var herr *autoplan.HistoryError
		if !errors.As(err, &herr) || herr.Family != "vm" {
			t.Errorf("%s: err = %v, want a *autoplan.HistoryError for vm", name, err)
		}
	}
}
