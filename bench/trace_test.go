package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func sp(id, parent int, kind, name string, from, to int64) *span {
	return &span{ID: id, Parent: parent, Kind: kind, Name: name, HostNs: [2]int64{from, to}}
}

func TestSelfTimeIsSpanMinusWhatChildrenCover(t *testing.T) {
	spans := []*span{
		sp(1, 0, kindRep, "rep", 0, 100),
		sp(2, 1, kindUnit, "a", 10, 50),
		sp(3, 1, kindUnit, "b", 60, 70),
		// overlapping children of a are counted once: they cover [15,40]
		sp(4, 2, kindStage, "sort", 15, 30),
		sp(5, 2, kindStage, "encode", 25, 40),
		// a child running past its parent is clipped to it
		sp(6, 3, kindStage, "sort", 65, 90),
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 15, 3: 5, 4: 15, 5: 15, 6: 25}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]int64
		within [2]int64
		want   int64
	}{
		{nil, [2]int64{0, 10}, 0},
		{[][2]int64{{2, 4}, {6, 8}}, [2]int64{0, 10}, 4},
		{[][2]int64{{6, 8}, {2, 7}}, [2]int64{0, 10}, 6},         // unsorted, overlapping
		{[][2]int64{{-5, 3}, {8, 20}}, [2]int64{0, 10}, 5},       // clipped at both ends
		{[][2]int64{{0, 10}, {3, 4}}, [2]int64{0, 10}, 10},       // nested
		{[][2]int64{{12, 15}, {4, 4}}, [2]int64{0, 10}, 0},       // outside, empty
		{[][2]int64{{1, 2}, {2, 3}, {3, 4}}, [2]int64{0, 10}, 3}, // touching
	} {
		if got := covered(c.ivs, c.within); got != c.want {
			t.Errorf("covered(%v within %v) = %d, want %d", c.ivs, c.within, got, c.want)
		}
	}
}

func TestAttributeSharesAddUp(t *testing.T) {
	spans := []*span{
		sp(1, 0, kindRep, "rep", 0, 1000),
		sp(2, 1, kindUnit, "pipeline", 10, 910),
		sp(3, 2, kindStage, "sort", 110, 610),
		sp(4, 2, kindStage, "encode", 610, 810),
		sp(5, 0, kindRep, "rep", 1000, 2000),
		sp(6, 5, kindUnit, "drain", 1000, 2000), // a unit with no stages is all des
	}
	a := attribute(spans)
	if a.repNs != 2000 {
		t.Fatalf("repNs = %d, want 2000", a.repNs)
	}
	for layer, want := range map[string]float64{
		"core.stage.sort":   0.25,
		"core.stage.encode": 0.10,
		"des":               0.60, // 200 around the stages + 1000
		"harness":           0.05,
	} {
		if got := a.share(layer); !near(got, want) {
			t.Errorf("share(%s) = %v, want %v", layer, got, want)
		}
	}
	var total float64
	for layer := range a.layerNs {
		total += a.share(layer)
	}
	if !near(total, 1) {
		t.Errorf("shares sum to %v, want 1", total)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", kindUnit)
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	tr.end(s)
	tr.annotate(s, 0, nil)
	l := tr.listener(s, nil)
	l.StageStarted("w", "sort", 0) // a listener without a tracer only ticks the clock
}

func TestTracerNestsAndWrites(t *testing.T) {
	tr := newTracer(nil)
	rep := tr.begin("wl", kindRep)
	unit := tr.begin("pipeline/x", kindUnit)
	stage := tr.add("sort", kindStage, unit.ID)
	tr.end(unit)
	tr.end(rep)
	if unit.Parent != rep.ID || stage.Parent != unit.ID || rep.Parent != 0 {
		t.Fatalf("parents: rep %d unit %d stage %d", rep.Parent, unit.Parent, stage.Parent)
	}
	if rep.Rep != 1 || unit.Rep != 1 {
		t.Fatalf("rep ids: %d %d, want 1 1", rep.Rep, unit.Rep)
	}
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeJSONL(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var n int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var got span
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if got.ID != tr.spans[n].ID || got.Name != tr.spans[n].Name {
			t.Errorf("line %d = %+v, want span %d %s", n, got, tr.spans[n].ID, tr.spans[n].Name)
		}
		n++
	}
	if n != 3 {
		t.Errorf("wrote %d lines, want 3", n)
	}
}
