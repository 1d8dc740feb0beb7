package experiments

import (
	"fmt"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
)

// Decide runs the cost-based planner over the profile's cloud at the
// given volume without executing anything: pure prediction, the
// decision table (the candidates behind "a seer knows best") the CLI
// and the autoplan example print.
func Decide(profile calib.Profile, dataBytes int64, obj autoplan.Objective) (autoplan.Decision, error) {
	dataBytes, _ = paperScale(dataBytes, 0)
	dec, err := autoplan.Plan(calib.PlanWorkload(profile, dataBytes), calib.PlanEnv(profile), obj)
	if err != nil {
		return dec, fmt.Errorf("experiments: decide %d bytes: %w", dataBytes, err)
	}
	return dec, nil
}
