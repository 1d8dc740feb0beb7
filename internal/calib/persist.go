package calib

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/faaspipe/faaspipe/internal/autoplan"
)

// State bundles what a session needs to survive a process restart: the
// performance + pricing profile and the auto-planner's measured
// calibration history. Persisting the history closes the ROADMAP gap
// of each new process starting from the raw analytic model — a
// restarted session plans its first job with the geometric-mean
// corrections every earlier run already paid to learn.
type State struct {
	Profile Profile           `json:"profile"`
	History *autoplan.History `json:"history,omitempty"`
}

// Save writes the state as indented JSON.
func Save(w io.Writer, st State) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		return fmt.Errorf("calib: save state: %w", err)
	}
	return nil
}

// Load reads a state written by Save. A state with no history section
// loads with a nil History (the raw model).
func Load(r io.Reader) (State, error) {
	var st State
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return State{}, fmt.Errorf("calib: load state: %w", err)
	}
	return st, nil
}

// Rig builds the simulated cloud from the saved state, seeding the
// rig's planner history with the persisted calibration so the feedback
// loop continues where the previous process left off.
func (st State) Rig() (*Rig, error) {
	r, err := NewRig(st.Profile)
	if err != nil {
		return nil, err
	}
	if st.History != nil {
		r.History = st.History
	}
	return r, nil
}
