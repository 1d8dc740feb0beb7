package experiments

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
)

func TestFaultToleranceMatrix(t *testing.T) {
	res, err := FaultTolerance(calib.Paper(), 500e6, 8, []float64{0, 0.05})
	if err != nil {
		t.Fatalf("FaultTolerance: %v", err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 rates x 3 policies", len(res.Rows))
	}
	byKey := make(map[string]FaultRow)
	for _, row := range res.Rows {
		byKey[row.Policy+"@"+formatRate(row.FailureRate)] = row
	}

	// At zero failures every policy succeeds with no retries.
	for _, p := range []string{"none", "retries", "retries+speculation"} {
		row := byKey[p+"@0"]
		if !row.Succeeded {
			t.Errorf("policy %v failed at rate 0", p)
		}
		if row.Retries != 0 || row.FailedAttempts != 0 {
			t.Errorf("policy %v at rate 0 shows retries=%d failed=%d", p, row.Retries, row.FailedAttempts)
		}
	}

	// At 5% failures, retries recover (with a paper-scale worker count
	// the unmitigated run usually aborts; at minimum the mitigated ones
	// must succeed and meter the recovery).
	for _, p := range []string{"retries", "retries+speculation"} {
		row := byKey[p+"@5"]
		if !row.Succeeded {
			t.Errorf("policy %v did not survive 5%% failures", p)
		}
		if row.FailedAttempts == 0 {
			t.Errorf("policy %v at 5%%: no failures injected?", p)
		}
		if row.Retries == 0 {
			t.Errorf("policy %v at 5%%: no retries metered", p)
		}
	}
}

func formatRate(r float64) string {
	if r == 0 {
		return "0"
	}
	return "5"
}

func TestFaultToleranceStragglersAlwaysInjected(t *testing.T) {
	res, err := FaultTolerance(calib.Paper(), 500e6, 8, []float64{0})
	if err != nil {
		t.Fatalf("FaultTolerance: %v", err)
	}
	var any bool
	for _, row := range res.Rows {
		if row.Stragglers > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no stragglers metered in any row at rate 0.15")
	}
}

func TestFaultResultString(t *testing.T) {
	res, err := FaultTolerance(calib.Paper(), 500e6, 4, []float64{0.02})
	if err != nil {
		t.Fatalf("FaultTolerance: %v", err)
	}
	out := res.String()
	for _, want := range []string{"none", "retries", "retries+speculation", "fail rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFaultPolicyString(t *testing.T) {
	var names []string
	for _, p := range faultPolicies {
		names = append(names, p.name)
	}
	if got := strings.Join(names, ","); got != "none,retries,retries+speculation" {
		t.Errorf("fault policies = %s", got)
	}
}
