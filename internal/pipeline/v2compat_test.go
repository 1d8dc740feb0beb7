package pipeline

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
)

// TestV1GoldenDocumentsLoadUnchanged: every pre-schema-v2 example
// document (golden fixtures frozen from the examples and tests that
// shipped before the redesign) still loads, validates, and survives a
// marshal/reload round trip identically — the v1 shim is
// byte-for-byte compatible.
func TestV1GoldenDocumentsLoadUnchanged(t *testing.T) {
	paths, err := filepath.Glob("testdata/v1/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("expected >= 8 golden fixtures, found %d", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			d, err := LoadFile(path)
			if err != nil {
				t.Fatalf("LoadFile: %v", err)
			}
			if d.Version != 0 {
				t.Errorf("v1 fixture parsed with version %d", d.Version)
			}
			for _, s := range d.Stages {
				if s.Type == "shuffle" && s.Strategy == "" {
					t.Errorf("stage %q lost its explicit strategy", s.Name)
				}
				if s.Objective != "" || s.Deadline != "" {
					t.Errorf("stage %q grew v2 fields from nowhere", s.Name)
				}
			}
			// Marshal/reload round trip: the v2 fields must not leak
			// into serialized v1 documents (omitempty) and reloading
			// must reproduce the same document.
			out, err := json.Marshal(d)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if strings.Contains(string(out), "objective") ||
				strings.Contains(string(out), "deadline") ||
				strings.Contains(string(out), "version") {
				t.Errorf("v1 round trip grew v2 fields: %s", out)
			}
			d2, err := Load(out)
			if err != nil {
				t.Fatalf("reload: %v", err)
			}
			if !reflect.DeepEqual(d, d2) {
				t.Errorf("round trip changed the document:\n%+v\n%+v", d, d2)
			}
		})
	}
}

// TestV1GoldenDocumentsStillRun: the golden documents execute
// end-to-end unmodified on the small local profile.
func TestV1GoldenDocumentsStillRun(t *testing.T) {
	paths, err := filepath.Glob("testdata/v1/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			d, err := LoadFile(path)
			if err != nil {
				t.Fatalf("LoadFile: %v", err)
			}
			rep, err := Run(d, calib.Local(), JobConfig{Records: 800})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(rep.Stages) != len(d.Stages) {
				t.Fatalf("stages = %d, want %d", len(rep.Stages), len(d.Stages))
			}
		})
	}
}

// TestV2FieldsRejectedInV1Documents: v2-only constructs in an
// unversioned document fail loudly, naming the migration.
func TestV2FieldsRejectedInV1Documents(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			"strategy auto",
			`{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"auto"}]}`,
			`"version": 2`,
		},
		{
			"omitted strategy",
			`{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle"}]}`,
			`"version": 2`,
		},
		{
			"objective",
			`{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","objective":"min-cost"}]}`,
			`"version": 2`,
		},
		{
			"deadline",
			`{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","deadline":"2m"}]}`,
			`"version": 2`,
		},
		{
			"explicit version 1 with auto",
			`{"version":1,"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"auto"}]}`,
			`"version": 2`,
		},
	}
	for _, c := range cases {
		_, err := Load([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the migration (%q)", c.name, err, c.want)
		}
	}
}

// TestUnknownFieldsStillRejected: DisallowUnknownFields keeps typos of
// the new fields loud, in both schema versions.
func TestUnknownFieldsStillRejected(t *testing.T) {
	cases := []string{
		// typo'd new stage fields
		`{"version":2,"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","objectiv":"min-cost"}]}`,
		`{"version":2,"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","deadLine":"2m"}]}`,
		// typo'd version field
		`{"vesion":2,"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","workers":2}]}`,
		// v2 fields must not be accepted at the document level
		`{"version":2,"objective":"min-cost","name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle"}]}`,
	}
	for i, doc := range cases {
		if _, err := Load([]byte(doc)); err == nil {
			t.Errorf("case %d: accepted", i)
		}
	}
}

// TestV2Validation: the strategy-aware rules of the new schema.
func TestV2Validation(t *testing.T) {
	v2 := func(stage string) string {
		return `{"version":2,"name":"x","input":{"bucket":"b","key":"k"},"workBucket":"w","stages":[` + stage + `]}`
	}
	accept := []struct {
		name  string
		stage string
	}{
		{"auto bare", `{"name":"s","type":"shuffle","strategy":"auto"}`},
		{"omitted strategy", `{"name":"s","type":"shuffle"}`},
		{"auto with pinned workers", `{"name":"s","type":"shuffle","strategy":"auto","workers":8}`},
		{"auto min-cost", `{"name":"s","type":"shuffle","strategy":"auto","objective":"min-cost"}`},
		{"auto min-time", `{"name":"s","type":"shuffle","objective":"min-time"}`},
		{"auto bounded", `{"name":"s","type":"shuffle","objective":"min-cost-within","deadline":"2m"}`},
		{"v2 concrete strategy", `{"name":"s","type":"shuffle","strategy":"vm","workers":2}`},
		{"v2 hierarchical", `{"name":"s","type":"shuffle","strategy":"object-storage","workers":8,"hierarchical":true,"groups":4}`},
	}
	for _, c := range accept {
		if _, err := Load([]byte(v2(c.stage))); err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
	}
	reject := []struct {
		name  string
		stage string
		want  string
	}{
		{"unknown objective", `{"name":"s","type":"shuffle","objective":"cheapest"}`, "unknown objective"},
		{"bounded without deadline", `{"name":"s","type":"shuffle","objective":"min-cost-within"}`, "deadline"},
		{"deadline without bounded", `{"name":"s","type":"shuffle","objective":"min-cost","deadline":"2m"}`, "min-cost-within"},
		{"unparsable deadline", `{"name":"s","type":"shuffle","objective":"min-cost-within","deadline":"soon"}`, "bad deadline"},
		{"zero deadline", `{"name":"s","type":"shuffle","objective":"min-cost-within","deadline":"0s"}`, `stage "s": deadline "0s" is not positive`},
		{"negative deadline", `{"name":"s","type":"shuffle","objective":"min-cost-within","deadline":"-90s"}`, `stage "s": deadline "-90s" is not positive`},
		{"objective on concrete strategy", `{"name":"s","type":"shuffle","strategy":"vm","workers":2,"objective":"min-cost"}`, "auto"},
		{"objective on map", `{"name":"s","type":"map","function":"f","inputsFrom":"k","objective":"min-cost"}`, "shuffle"},
		{"auto with cacheNodes", `{"name":"s","type":"shuffle","strategy":"auto","cacheNodes":2}`, "pins an exchange family"},
		{"auto with instanceType", `{"name":"s","type":"shuffle","instanceType":"bx2-4x16"}`, "pins an exchange family"},
		{"auto with hierarchical", `{"name":"s","type":"shuffle","hierarchical":true}`, "pins an exchange family"},
	}
	for _, c := range reject {
		_, err := Load([]byte(v2(c.stage)))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
	if _, err := Load([]byte(`{"version":3,"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle"}]}`)); err == nil ||
		!strings.Contains(err.Error(), "unsupported schema version") {
		t.Errorf("version 3 = %v", err)
	}
}

// TestGroupsRequireExplicitWorkers: the eager validation that used to
// slip through (workers 0, groups set) and fail deep inside the
// shuffle.
func TestGroupsRequireExplicitWorkers(t *testing.T) {
	doc := `{"name":"x","workBucket":"w","stages":[{"name":"s","type":"shuffle","strategy":"object-storage","hierarchical":true,"groups":3}]}`
	_, err := Load([]byte(doc))
	if err == nil {
		t.Fatal("workers 0 with groups 3 accepted")
	}
	if !strings.Contains(err.Error(), "explicit workers") {
		t.Errorf("error %q does not explain the workers requirement", err)
	}
}
