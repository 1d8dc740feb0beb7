package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"github.com/faaspipe/faaspipe/internal/core"
)

// Span kinds, outermost first. A rep holds units (one pipeline run,
// chaos cell, sweep point or gateway drain); a unit holds the stages
// the executor reported through core.Listener.
const (
	kindRep   = "rep"
	kindUnit  = "unit"
	kindStage = "stage"
)

// span is one traced interval on both clocks. Host times are
// nanoseconds since the tracer's epoch; virtual times are simulated
// seconds on the unit's own simulation clock.
type span struct {
	Workload string             `json:"workload,omitempty"`
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0: root
	Rep      int                `json:"rep"`
	Kind     string             `json:"kind"`
	Name     string             `json:"name"`
	HostNs   [2]int64           `json:"host_ns"`
	VirtualS [2]float64         `json:"virtual_s"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s *span) hostDur() int64 { return s.HostNs[1] - s.HostNs[0] }

// tracer keeps spans in memory; nothing is written until the run ends.
// Every method is safe on a nil tracer (tracing off) and then does
// nothing, so workloads call them unconditionally.
type tracer struct {
	epoch time.Time
	clk   *hostClock // its calibration spins are cut out of the time axis
	spans []*span
	open  []*span // harness-side nesting (rep -> unit)
	rep   int
}

func newTracer(clk *hostClock) *tracer { return &tracer{epoch: time.Now(), clk: clk} }

// now is the host time since the epoch, not counting calibration spins:
// they run inside reps (between units, at stage boundaries) and belong
// to no layer.
func (t *tracer) now() int64 {
	d := time.Since(t.epoch)
	if t.clk != nil {
		d -= t.clk.spent
	}
	return int64(d)
}

// begin opens a span under the innermost open harness span.
func (t *tracer) begin(name, kind string) *span {
	if t == nil {
		return nil
	}
	var parent int
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].ID
	}
	if kind == kindRep {
		t.rep++
	}
	s := t.add(name, kind, parent)
	t.open = append(t.open, s)
	return s
}

func (t *tracer) add(name, kind string, parent int) *span {
	now := t.now()
	s := &span{ID: len(t.spans) + 1, Parent: parent, Rep: t.rep, Kind: kind, Name: name,
		HostNs: [2]int64{now, now}}
	t.spans = append(t.spans, s)
	return s
}

// end closes s, which must be the innermost open harness span.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	s.HostNs[1] = t.now()
	if n := len(t.open); n > 0 && t.open[n-1] == s {
		t.open = t.open[:n-1]
	}
}

// annotate records the unit's simulated duration and counter window.
func (t *tracer) annotate(s *span, virtual time.Duration, c counters) {
	if t == nil || s == nil {
		return
	}
	s.VirtualS[1] = virtual.Seconds()
	s.Counters = c
}

// stage opens a stage span under unit for work the harness drives
// itself (the worker sweep calls the shuffle operator directly, with no
// executor to report the stage); the caller closes it with endStage.
func (t *tracer) stage(unit *span, name string, virtual time.Duration) *span {
	if t == nil || unit == nil {
		return nil
	}
	s := t.add(name, kindStage, unit.ID)
	s.VirtualS[0] = virtual.Seconds()
	return s
}

func (t *tracer) endStage(s *span, virtual time.Duration) {
	if t == nil || s == nil {
		return
	}
	s.HostNs[1] = t.now()
	s.VirtualS[1] = virtual.Seconds()
}

// listener returns the core.Listener a pipeline run registers: it
// offers the host clock a cut at every stage boundary and, with
// tracing on, records stage spans under unit.
func (t *tracer) listener(unit *span, clk *hostClock) core.Listener {
	return &stageListener{t: t, unit: unit, clk: clk, open: map[string]*span{}}
}

// stageListener hangs stage spans off the executor's lifecycle hooks.
// The simulation runs one process at a time, so the host interval
// between a stage's start and finish callbacks is exactly the host
// time the simulator spent while that stage was in flight.
type stageListener struct {
	t    *tracer
	unit *span
	clk  *hostClock
	open map[string]*span
}

func (l *stageListener) StageStarted(_, stage string, at time.Duration) {
	if l.t == nil {
		return
	}
	s := l.t.add(stage, kindStage, l.unit.ID)
	s.VirtualS[0] = at.Seconds()
	l.open[stage] = s
}

func (l *stageListener) StageFinished(_ string, rep core.StageReport) {
	l.clk.tick()
	s := l.open[rep.Name]
	if s == nil {
		return
	}
	delete(l.open, rep.Name)
	s.HostNs[1] = l.t.now()
	s.VirtualS[1] = rep.End.Seconds()
	s.Counters = counters{
		"objectstore.ops":  float64(rep.Store.TotalOps()),
		"faas.invocations": float64(rep.Faas.Invocations),
		"usd":              rep.Cost.Total(),
	}
}

func (l *stageListener) RunFinished(*core.RunReport) {}

// selfTimes returns each span's self time: its host duration minus the
// part of that interval its children cover (overlapping children are
// counted once).
func selfTimes(spans []*span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.HostNs)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.hostDur() - covered(children[s.ID], s.HostNs)
	}
	return self
}

// covered is the length of the union of ivs clipped to within.
func covered(ivs [][2]int64, within [2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		if iv[0] < within[0] {
			iv[0] = within[0]
		}
		if iv[1] > within[1] {
			iv[1] = within[1]
		}
		if iv[1] > iv[0] {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = within[0]
	for _, iv := range clipped {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// attribution is where the traced reps' host time went.
type attribution struct {
	repNs   int64            // sum of rep spans
	layerNs map[string]int64 // self time by layer: "des", "harness", "core.stage.<name>"
}

// attribute sums self time by layer. A stage's self time belongs to
// that stage; a unit's self time (simulator work outside any stage:
// rig construction, input staging, session open and close, and for
// stage-less units the whole event loop) belongs to "des"; a rep's
// self time is the harness's own glue.
func attribute(spans []*span) attribution {
	a := attribution{layerNs: map[string]int64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		switch s.Kind {
		case kindRep:
			a.repNs += s.hostDur()
			a.layerNs["harness"] += self[s.ID]
		case kindUnit:
			a.layerNs["des"] += self[s.ID]
		case kindStage:
			a.layerNs["core.stage."+s.Name] += self[s.ID]
		}
	}
	return a
}

// share is a layer's part of the traced reps' host time.
func (a attribution) share(layer string) float64 {
	if a.repNs == 0 {
		return 0
	}
	return float64(a.layerNs[layer]) / float64(a.repNs)
}

// writeJSONL appends one span per line, like results.jsonl beside it.
func writeJSONL(path string, spans []*span) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
