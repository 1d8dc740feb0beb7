package pipeline

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/calib"
)

func TestRunSizedDocument(t *testing.T) {
	d, err := Load([]byte(validDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := Run(d, calib.Paper(), JobConfig{DataBytes: 500e6})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
	if rep.Latency() <= 0 || rep.MeteredUSD() <= 0 {
		t.Fatalf("latency %v, cost %.6f", rep.Latency(), rep.MeteredUSD())
	}
}

func TestRunRealRecordsDocument(t *testing.T) {
	d, err := Load([]byte(validDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := Run(d, calib.Local(), JobConfig{Records: 2000, Seed: 7})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sr, ok := rep.Stage("encode"); !ok || sr.Faas.Invocations == 0 {
		t.Fatalf("encode stage missing or idle: %+v", sr)
	}
}

func TestRunDecodeRoundtripDocument(t *testing.T) {
	doc := `{
	  "name": "roundtrip",
	  "input": {"bucket": "data", "key": "sample.bed"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "sort", "type": "shuffle", "strategy": "object-storage", "workers": 4},
	    {"name": "encode", "type": "map", "function": "methcomp/encode", "dependsOn": ["sort"]},
	    {"name": "decode", "type": "map", "function": "methcomp/decode", "dependsOn": ["encode"]}
	  ]
	}`
	d, err := Load([]byte(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := Run(d, calib.Local(), JobConfig{Records: 1500})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Stages) != 3 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
}

func TestRunRejectsUnknownFunction(t *testing.T) {
	doc := `{
	  "name": "custom",
	  "input": {"bucket": "data", "key": "in"},
	  "workBucket": "work",
	  "stages": [
	    {"name": "sort", "type": "shuffle", "strategy": "object-storage", "workers": 2},
	    {"name": "custom", "type": "map", "function": "acme/frobnicate", "dependsOn": ["sort"]}
	  ]
	}`
	d, err := Load([]byte(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	_, err = Run(d, calib.Local(), JobConfig{DataBytes: 1 << 20})
	if err == nil || !strings.Contains(err.Error(), "no built-in input builder") {
		t.Fatalf("Run with unknown function = %v", err)
	}
}

func TestRunNilDocument(t *testing.T) {
	if _, err := Run(nil, calib.Local(), JobConfig{}); err == nil {
		t.Fatal("nil document accepted")
	}
}
