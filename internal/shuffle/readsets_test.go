package shuffle

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// freeSets returns the read sets on readSets, each named by its first
// stream, with the streams it has room for.
func freeSets() map[*objectstore.ClientStream]int {
	readSets.Mu.Lock()
	defer readSets.Mu.Unlock()
	ids := make(map[*objectstore.ClientStream]int, len(readSets.Items))
	for _, s := range readSets.Items {
		ids[&s.streams[0]] = len(s.streams)
	}
	return ids
}

// freeSetBytes returns the bytes the read sets on readSets hold: their
// streams and the sources over them.
func freeSetBytes() uint64 {
	var n uint64
	for _, streams := range freeSets() {
		n += uint64(streams) * uint64(unsafe.Sizeof(objectstore.ClientStream{})+unsafe.Sizeof(runSource(nil)))
	}
	return n
}

// checkFreeSetsHoldNothing fails t where a stream of a read set on
// readSets holds anything but its bound step: a client, a service, a
// bucket, a process of the rig it last read for, or a producing side
// that ran on after the set was put back.
func checkFreeSetsHoldNothing(t *testing.T) {
	t.Helper()
	readSets.Mu.Lock()
	defer readSets.Mu.Unlock()
	for _, s := range readSets.Items {
		for i := range s.streams {
			v := reflect.ValueOf(&s.streams[i]).Elem()
			for f := range v.NumField() {
				if name := v.Type().Field(f).Name; name != "stepFn" && !v.Field(f).IsZero() {
					t.Fatalf("stream %d of a free read set holds its %s", i, name)
				}
			}
		}
	}
}

// sizedRig is newRig's store and platform with no cache, the
// platform's invocations straggling at the given rate.
func sizedRig(t *testing.T, stragglers float64) *testRig {
	t.Helper()
	sim := des.New(1)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   time.Millisecond,
		PerConnBandwidth: 1e9,
		ReadOpsPerSec:    1e6,
		WriteOpsPerSec:   1e6,
		OpsBurst:         1e6,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := faas.New(sim, store, faas.Config{
		ColdStart:          100 * time.Millisecond,
		WarmStart:          5 * time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   500,
		BillingGranularity: 100 * time.Millisecond,
		StragglerRate:      stragglers,
		StragglerSlowdown:  8,
	})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	op, err := NewOperator(pf, store, nil)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	return &testRig{sim: sim, store: store, pf: pf, op: op}
}

// sizedSpec sorts startSized's input with w workers, its merge slow
// enough that a reducer reads many chunks over a visible stretch.
func sizedSpec(w int) Spec {
	spec := sortSpec(w)
	spec.PartitionBps, spec.MergeBps = 1e9, 2e8
	spec.StreamChunkBytes = 1 << 20
	return spec
}

// sizedRun is a sort of a sized input: when it started and, once the
// run has got there, what it returned and when.
type sizedRun struct {
	at, end time.Duration
	res     Result
	err     error
}

// startSized stores a sized input of 1 GB on rig and spawns the driver
// that sorts it under spec.
func startSized(t *testing.T, rig *testRig, spec Spec) *sizedRun {
	run := &sizedRun{end: -1}
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		for _, b := range []string{"in", "out"} {
			if err := c.CreateBucket(p, b); err != nil {
				t.Errorf("bucket %s: %v", b, err)
				return
			}
		}
		if err := c.Put(p, "in", "data.bed", payload.Sized(1_000_000_000)); err != nil {
			t.Errorf("put input: %v", err)
			return
		}
		run.at = p.Now()
		run.res, run.err = rig.op.Sort(p, spec)
		run.end = p.Now()
	})
	return run
}

// runSized runs spec's sort on rig to the end.
func runSized(t *testing.T, rig *testRig, spec Spec) *sizedRun {
	t.Helper()
	run := startSized(t, rig, spec)
	if err := rig.sim.Run(); err != nil || run.err != nil {
		t.Fatalf("sized sort: %v, %v", err, run.err)
	}
	return run
}

// TestReducerReadSetAllocatesNothing opens, drains and closes a
// reducer's 64 runs through storeRuns, one chunk each, over and over in
// one invocation: once its first read set is on the free list, a
// reducer's open allocates nothing, neither the streams, nor their
// steps, nor the sources over them.
func TestReducerReadSetAllocatesNothing(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	const fanIn, runBytes = 64, 27_000
	keys := make([]string, fanIn)
	for i := range keys {
		keys[i] = partKey("job-000017", i, 3)
	}
	runs := &storeRuns{bucket: "runs"}
	sim, store, pf := readPinRig(t)
	allocs := -1.0
	if err := pf.Register("pin/reduce", func(ctx *faas.Ctx, _ any) (any, error) {
		read := func() {
			set, total, err := runs.open(ctx, keys, 1<<20)
			defer set.close()
			if err != nil || total != fanIn*runBytes {
				t.Errorf("open: %d bytes, %v", total, err)
				return
			}
			for _, src := range set.srcs {
				for {
					if _, err := src.Next(ctx.Proc); err != nil {
						if !errors.Is(err, io.EOF) {
							t.Error(err)
						}
						break
					}
				}
			}
		}
		read()
		allocs = testing.AllocsPerRun(20, read)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(store)
		if err := c.CreateBucket(p, "runs"); err != nil {
			t.Errorf("bucket: %v", err)
			return
		}
		body := payload.Sized(runBytes)
		if n, err := c.PutEach(p, "runs", fanIn, func(i int) (string, payload.Payload) { return keys[i], body }); err != nil {
			t.Errorf("put: %d, %v", n, err)
			return
		}
		if _, err := pf.Invoke(p, "pin/reduce", nil, faas.InvokeOptions{}); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if allocs != 0 {
		t.Errorf("a warm reducer's open, drain and close of %d runs allocates %.1f times, want 0", fanIn, allocs)
	}
}

// TestReadSetWithARunningStreamStaysOffTheList leaves a reducer's read
// set with a producing side still running, three ways: a reader closes
// with a chunk in flight, a sort is stopped at a horizon with its
// reducers mid-merge, and a speculative sort returns while a loser still
// reads. The set must not go back on the free list, the next take must
// make storage afresh, and once the heap has drained no set on the list
// may hold more than its bound steps: one put back while its stream ran
// would show the stream's later events.
func TestReadSetWithARunningStreamStaysOffTheList(t *testing.T) {
	t.Run("closed with a chunk in flight", func(t *testing.T) {
		destest.EmptyFreeList(t, &readSets)
		keys := []string{"r0", "r1", "r2"}
		runs := &storeRuns{bucket: "runs"}
		sim, store, pf := readPinRig(t)
		if err := pf.Register("pin/reduce", func(ctx *faas.Ctx, _ any) (any, error) {
			first, _, err := runs.open(ctx, keys, 10_000)
			if err != nil {
				return nil, err
			}
			for _, src := range first.srcs {
				for err := error(nil); err == nil; {
					_, err = src.Next(ctx.Proc)
				}
			}
			first.close()
			if got := freeSets(); len(got) != 1 || got[&first.streams[0]] == 0 {
				t.Errorf("a set read through is not the one free set: %v", got)
			}
			again, _, err := runs.open(ctx, keys, 10_000)
			if err != nil {
				return nil, err
			}
			if &again.streams[0] != &first.streams[0] {
				t.Error("the second open did not take the free set")
			}
			if _, err := again.srcs[0].Next(ctx.Proc); err != nil {
				return nil, err
			}
			if len(store.OpenStreams()) == 0 {
				t.Error("no producing side runs at the close")
			}
			again.close() // its next chunk is on the link
			if got := freeSets(); len(got) != 0 {
				t.Errorf("a set closed with a chunk in flight went back on the list: %v", got)
			}
			third := readSets.Take(len(keys))
			if &third.streams[0] == &first.streams[0] {
				t.Error("the next take was served the set whose chunk is in flight")
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		sim.Spawn("driver", func(p *des.Proc) {
			c := objectstore.NewClient(store)
			if err := c.CreateBucket(p, "runs"); err != nil {
				t.Errorf("bucket: %v", err)
				return
			}
			body := payload.Sized(100_000)
			if _, err := c.PutEach(p, "runs", len(keys), func(i int) (string, payload.Payload) { return keys[i], body }); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if _, err := pf.Invoke(p, "pin/reduce", nil, faas.InvokeOptions{}); err != nil {
				t.Errorf("invoke: %v", err)
			}
		})
		if err := sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		checkFreeSetsHoldNothing(t)
	})

	// stopped runs a sort on a fresh rig to the horizon stop picks from a
	// whole run of it, then runs the rest of the heap out. At the horizon
	// some stream must still run; after it, no set on the list may hold
	// anything, some sets of the whole run's must be missing from it, and
	// the next sort must make as many afresh.
	stopped := func(t *testing.T, stragglers float64, spec Spec, stop func(*sizedRun) time.Duration) {
		destest.EmptyFreeList(t, &readSets)
		whole := runSized(t, sizedRig(t, stragglers), spec)
		before := freeSets()
		if len(before) == 0 {
			t.Fatal("a whole sort left no read set on the list")
		}
		rig := sizedRig(t, stragglers)
		startSized(t, rig, spec)
		horizon := stop(whole)
		if err := rig.sim.RunUntil(horizon); !errors.Is(err, des.ErrSimLimit) {
			t.Fatalf("RunUntil(%v): %v", horizon, err)
		}
		running := len(rig.store.OpenStreams())
		if running == 0 {
			t.Fatalf("no stream runs at %v", horizon)
		}
		if err := rig.sim.Run(); err != nil {
			t.Fatalf("the rest of the heap: %v", err)
		}
		checkFreeSetsHoldNothing(t)
		after := freeSets()
		for id := range after {
			if before[id] == 0 {
				t.Fatal("a set the whole sort never made is on the list")
			}
		}
		missing := len(before) - len(after)
		if missing == 0 {
			t.Fatalf("%d streams ran at the horizon, yet every set came back", running)
		}
		runSized(t, sizedRig(t, stragglers), spec)
		fresh := 0
		for id := range freeSets() {
			if before[id] == 0 {
				fresh++
			}
		}
		if fresh != missing {
			t.Errorf("the next sort made %d sets afresh, want the %d left off the list", fresh, missing)
		}
		t.Logf("%d of %d sets left off the list, %d streams running at %v", missing, len(before), running, horizon)
	}
	t.Run("killed mid-merge at a horizon", func(t *testing.T) {
		stopped(t, 0, sizedSpec(8), func(whole *sizedRun) time.Duration {
			return whole.at + whole.res.Sample + whole.res.Phase1 + whole.res.Phase2/2
		})
	})
	t.Run("speculative loser", func(t *testing.T) {
		spec := sizedSpec(16)
		spec.Speculate = true
		stopped(t, 0.1, spec, func(whole *sizedRun) time.Duration { return whole.end })
	})
}

// TestFreeReadSetsPinNoRig runs a sort on a rig, drops the rig and
// collects: what the rig's object store keeps must go while the list
// still holds the sort's read sets, which keep nothing of the rig but
// their bound steps. The finalizer is on the bytes of an object the
// store keeps, which nothing else reaches: a stream that kept its
// client, its service or its bucket would keep them. It cannot be on the
// Service itself, which may sit in a cycle (a stream's client points
// back to it), and a finalizer on an object in a cycle need not ever
// run.
func TestFreeReadSetsPinNoRig(t *testing.T) {
	destest.EmptyFreeList(t, &readSets)
	base := runtime.NumGoroutine()
	collected := make(chan struct{})
	func() {
		rig := sizedRig(t, 0)
		kept := make([]byte, 4096)
		runtime.SetFinalizer(&kept[0], func(*byte) { close(collected) })
		rig.sim.Spawn("keeper", func(p *des.Proc) {
			c := objectstore.NewClient(rig.store)
			if err := c.CreateBucket(p, "kept"); err != nil {
				t.Error(err)
			}
			if err := c.Put(p, "kept", "bytes", payload.RealNoCopy(kept)); err != nil {
				t.Error(err)
			}
		})
		runSized(t, rig, sizedSpec(8))
	}()
	if len(freeSets()) == 0 {
		t.Fatal("the sort left no read set on the list")
	}
	checkFreeSetsHoldNothing(t)
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= base { // the simulation's goroutines have exited
			runtime.GC()
		}
		select {
		case <-collected:
			if len(freeSets()) == 0 {
				t.Fatal("the list gave up the sort's read sets")
			}
			return
		case <-time.After(time.Millisecond):
		}
		if i == 5000 {
			t.Fatal("the rig's object store was never collected: something still reaches it")
		}
	}
}

// TestReadSetsAcrossConcurrentRigs runs sized sorts on four rigs at once,
// each on its own goroutine and simulation, all taking read sets from
// and putting them back on the one list: each rig's run must be the run
// it makes alone, and the list must end holding only reclaimed sets.
func TestReadSetsAcrossConcurrentRigs(t *testing.T) {
	destest.EmptyFreeList(t, &readSets)
	spec := sizedSpec(16)
	alone := sizedRig(t, 0)
	runSized(t, alone, spec)
	want, wantAt := alone.sim.Fired(), alone.sim.Now()
	const rigs, runs = 4, 3
	done := make(chan string, rigs)
	for g := range rigs {
		go func() {
			for r := range runs {
				rig := sizedRig(t, 0)
				run := startSized(t, rig, spec)
				if err := rig.sim.Run(); err != nil || run.err != nil {
					done <- fmt.Sprintf("rig %d, run %d: %v, %v", g, r, err, run.err)
					return
				}
				if got, at := rig.sim.Fired(), rig.sim.Now(); got != want || at != wantAt {
					done <- fmt.Sprintf("rig %d, run %d: %d events to %v, alone %d to %v", g, r, got, at, want, wantAt)
					return
				}
			}
			done <- ""
		}()
	}
	for range rigs {
		if msg := <-done; msg != "" {
			t.Error(msg)
		}
	}
	checkFreeSetsHoldNothing(t)
	if n := len(freeSets()); n < spec.Workers || n > rigs*spec.Workers {
		t.Errorf("%d sets on the list, want between one rig's %d and four rigs' %d", n, spec.Workers, rigs*spec.Workers)
	}
}
