package pipeline

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
)

// FuzzLoad feeds the document loader hostile JSON. Whatever it accepts
// must be a document the rest of the package can stand behind: it
// validates again, every bounded objective has a positive bound, and
// binding it to a rig with the built-in map builders either succeeds or
// fails with this package's own error, never a panic and never an error
// leaked from a layer below.
func FuzzLoad(f *testing.F) {
	fixtures, err := filepath.Glob("testdata/v1/*.json")
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("v1 fixtures: %v (%d files)", err, len(fixtures))
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	bounded := func(deadline string) string {
		return `{"version":2,"name":"x","input":{"bucket":"b","key":"k"},"workBucket":"w","stages":[` +
			`{"name":"s","type":"shuffle","objective":"min-cost-within","deadline":"` + deadline + `"},` +
			`{"name":"e","type":"map","function":"methcomp/encode","dependsOn":["s"]}]}`
	}
	for _, doc := range []string{validDoc, autoDoc, bounded("5m"), bounded("0s"), bounded("-90s")} {
		f.Add([]byte(doc))
	}
	rig, err := calib.NewRig(calib.Local())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "pipeline:") {
				t.Fatalf("Load error without the package prefix: %v", err)
			}
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted document does not validate again: %v", err)
		}
		for _, s := range d.Stages {
			if obj, err := s.objective(); err == nil && obj.Goal == autoplan.MinCostWithin && obj.TimeBound <= 0 {
				t.Fatalf("stage %q accepted with bound %v", s.Name, obj.TimeBound)
			}
		}
		builders, err := defaultBuilders(d, rig.Profile)
		if err == nil {
			_, err = d.Build(BuildOptions{Rig: rig, MapInputs: builders})
		}
		if err != nil && !strings.HasPrefix(err.Error(), "pipeline:") {
			t.Fatalf("Build error without the package prefix: %v", err)
		}
	})
}
