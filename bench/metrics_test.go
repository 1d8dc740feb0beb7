package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the acceptance driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesCatalogue keeps the file the driver reads and
// the table the harness reports from saying the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if bf.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, bf.Workloads[i].Name, w.name())
		}
		if n := len(bf.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %q: why is %d characters", w.name(), n)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, got, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, got, d)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}

func TestCatalogueIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	var setup bool
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the contract's alphabet or length", d.Name)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %q: unit %q is outside the contract's alphabet or length", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %q: better = %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %q is defined twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %q has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("the catalogue lacks setup_s in seconds, lower is better")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, name := range simulated {
		if _, ok := findMetric(endToEnd, name); !ok {
			t.Errorf("simulated metric %q is not an end-to-end metric", name)
		}
	}
}
