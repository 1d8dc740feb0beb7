package objectstore

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// requestCallers runs three callers at once on a fresh rig, each a list
// PUT of four copies of body, a GET and a list open read through, every
// request waiting at a throttle of burst 1. It returns the rig, run out,
// and the callers. It may run on any goroutine.
func requestCallers(t *testing.T, body payload.Payload) (*des.Sim, *Service, []*des.Proc, error) {
	cfg := fastCfg()
	cfg.ReadOpsPerSec, cfg.WriteOpsPerSec, cfg.OpsBurst = 1000, 1000, 1
	sim := des.New(5)
	svc, err := New(sim, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	svc.buckets["b"] = newBucket("b")
	var callers []*des.Proc
	for c := range 3 {
		callers = append(callers, sim.Spawn(fmt.Sprintf("caller%d", c), func(p *des.Proc) {
			cl := NewClient(svc)
			keys, _ := listOf(fmt.Sprintf("c%d/k", c), 4, 0)
			if n, err := cl.PutEach(p, "b", len(keys), func(i int) (string, payload.Payload) { return keys[i], body }); n != len(keys) || err != nil {
				t.Errorf("caller %d: PutEach %d, %v", c, n, err)
				return
			}
			if _, err := cl.Get(p, "b", keys[0]); err != nil {
				t.Errorf("caller %d: Get: %v", c, err)
			}
			streams := make([]ClientStream, len(keys))
			n, err := cl.GetStreams(p, streams, "b", keys, 0, -1, StreamOptions{ChunkBytes: 4096})
			if err != nil {
				t.Errorf("caller %d: GetStreams: %v", c, err)
			}
			for i := range n {
				for err = nil; err == nil; {
					_, err = streams[i].Next(p)
				}
				if !errors.Is(err, io.EOF) {
					t.Errorf("caller %d: stream %d: %v", c, i, err)
				}
			}
		}))
	}
	return sim, svc, callers, sim.Run()
}

// checkFreeRequestsHoldNothing fails t where a record on requests holds
// anything but its bound entries and its token waiter's: a service, a
// process, a bucket, a body, a token bucket, the stream it opened.
func checkFreeRequestsHoldNothing(t *testing.T) {
	t.Helper()
	requests.Mu.Lock()
	defer requests.Mu.Unlock()
	bound := map[string]bool{"stepFn": true, "grantFn": true, "gateFn": true, "creditFn": true}
	for i, r := range requests.Items {
		for _, v := range []reflect.Value{reflect.ValueOf(r).Elem(), reflect.ValueOf(&r.take).Elem()} {
			for f := range v.NumField() {
				name := v.Type().Field(f).Name
				if name != "take" && !bound[name] && !v.Field(f).IsZero() {
					t.Fatalf("free record %d holds its %s.%s", i, v.Type().Name(), name)
				}
			}
		}
	}
}

// TestFreeRequestsPinNoRig runs three callers on a rig, drops the rig and
// collects: the callers' processes, the rig's token buckets and the bytes
// its store keeps must go while the list still holds the records their
// requests ran on. A record that kept its service would keep the bytes,
// one that kept its process or its waiter's bucket those. The finalizer
// cannot be on the Service itself, which may sit in a cycle (a stream's
// client points back to it), and a finalizer on an object in a cycle
// need not ever run.
func TestFreeRequestsPinNoRig(t *testing.T) {
	destest.EmptyFreeList(t, &requests)
	base := runtime.NumGoroutine()
	collected := make(chan string, 8)
	left := map[string]bool{}
	watch := func(v any, name string) {
		left[name] = true
		runtime.SetFinalizer(v, func(any) { collected <- name })
	}
	func() {
		kept := make([]byte, 4096)
		watch(&kept[0], "the stored bytes")
		_, svc, callers, err := requestCallers(t, payload.RealNoCopy(kept))
		if err != nil {
			t.Fatal(err)
		}
		watch(svc.readTB, "the read bucket")
		watch(svc.writeTB, "the write bucket")
		for i, p := range callers {
			watch(p, fmt.Sprintf("caller %d", i))
		}
	}()
	if len(requests.Items) == 0 {
		t.Fatal("the callers left no record on the list")
	}
	checkFreeRequestsHoldNothing(t)
	for i := 0; len(left) > 0; i++ {
		if runtime.NumGoroutine() <= base { // the simulation's goroutines have exited
			runtime.GC()
		}
		select {
		case name := <-collected:
			delete(left, name)
		case <-time.After(time.Millisecond):
		}
		if i == 5000 {
			t.Fatalf("never collected: %v; a free record still reaches the rig", left)
		}
	}
	if len(requests.Items) == 0 {
		t.Fatal("the list gave up the records")
	}
}

// TestRequestsAcrossConcurrentRigs runs the callers on four rigs at once,
// each on its own goroutine and simulation, all taking records from and
// putting them back on the one list: each rig's run must be the run it
// makes alone, and the list must end holding only clean records, no
// more than four rigs had in flight.
func TestRequestsAcrossConcurrentRigs(t *testing.T) {
	destest.EmptyFreeList(t, &requests)
	body := payload.Sized(10_000)
	alone, svc, _, err := requestCallers(t, body)
	if err != nil {
		t.Fatal(err)
	}
	want, wantAt, wantMeters := alone.Fired(), alone.Now(), svc.Metrics()
	peak := len(requests.Items)
	const rigs, runs = 4, 3
	done := make(chan string, rigs)
	for g := range rigs {
		go func() {
			for r := range runs {
				sim, svc, _, err := requestCallers(t, body)
				if err != nil {
					done <- fmt.Sprintf("rig %d, run %d: %v", g, r, err)
					return
				}
				if got, at, m := sim.Fired(), sim.Now(), svc.Metrics(); got != want || at != wantAt || m != wantMeters {
					done <- fmt.Sprintf("rig %d, run %d: %d events to %v, %+v; alone %d to %v, %+v", g, r, got, at, m, want, wantAt, wantMeters)
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
	checkFreeRequestsHoldNothing(t)
	if n := len(requests.Items); n < peak || n > rigs*peak {
		t.Errorf("%d records on the list, want between one rig's %d and four rigs' %d", n, peak, rigs*peak)
	}
}

// TestSecondRigTakesTheFirstRigsRecords: a rig made after another, for
// the next sweep point or fault cell, runs its requests on the records
// the first one gave back, and makes none.
func TestSecondRigTakesTheFirstRigsRecords(t *testing.T) {
	destest.EmptyFreeList(t, &requests)
	fresh, made := requests.Fresh, 0
	requests.Fresh = func(n int) *request {
		made++
		return fresh(n)
	}
	t.Cleanup(func() { requests.Fresh = fresh })
	if _, _, _, err := requestCallers(t, payload.Sized(10_000)); err != nil {
		t.Fatal(err)
	}
	first := made
	if first == 0 || len(requests.Items) != first {
		t.Fatalf("the first rig made %d records and gave back %d", first, len(requests.Items))
	}
	if _, _, _, err := requestCallers(t, payload.Sized(10_000)); err != nil {
		t.Fatal(err)
	}
	if made != first {
		t.Errorf("the second rig made %d records afresh, want 0", made-first)
	}
	if len(requests.Items) != first {
		t.Errorf("%d records on the list after the second rig, want the first rig's %d", len(requests.Items), first)
	}
	t.Logf("%d records for three callers", first)
}
