package memcache

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// admissionCallers runs three callers at once on a fresh two-node
// cluster, each a Set and a Get of a key of its own, every request
// admitted through a throttle of burst 1, so that all but the first wait
// for their token. It returns the rig, run out, the cluster and the
// callers. It may run on any goroutine.
func admissionCallers(t *testing.T, body payload.Payload) (*des.Sim, *Cluster, []*des.Proc, error) {
	cfg := fastConfig()
	cfg.NodeOpsPerSec, cfg.OpsBurst = 1000, 1
	cfg.RequestLatency = time.Millisecond
	sim := des.New(3)
	pr, err := NewProvisioner(sim, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var c *Cluster
	var callers []*des.Proc
	sim.Spawn("setup", func(p *des.Proc) {
		if c, err = pr.ProvisionWarm(p, 2); err != nil {
			t.Error(err)
			return
		}
		for i := range 3 {
			key := fmt.Sprintf("k%d", i)
			callers = append(callers, p.Spawn(fmt.Sprintf("caller%d", i), func(p *des.Proc) {
				if err := c.Set(p, key, body); err != nil {
					t.Errorf("%s: Set: %v", key, err)
				}
				if _, err := c.Get(p, key); err != nil {
					t.Errorf("%s: Get: %v", key, err)
				}
			}))
		}
	})
	return sim, c, callers, sim.Run()
}

// checkFreeAdmissionsHoldNothing fails t where a record on admissions
// holds anything but its bound entries and its token waiter's: a
// cluster, a process, a node, a token bucket, an error.
func checkFreeAdmissionsHoldNothing(t *testing.T) {
	t.Helper()
	admissions.Mu.Lock()
	defer admissions.Mu.Unlock()
	bound := map[string]bool{"stepFn": true, "grantFn": true, "gateFn": true, "creditFn": true}
	for i, a := range admissions.Items {
		for _, v := range []reflect.Value{reflect.ValueOf(a).Elem(), reflect.ValueOf(&a.take).Elem()} {
			for f := range v.NumField() {
				name := v.Type().Field(f).Name
				if name != "take" && !bound[name] && !v.Field(f).IsZero() {
					t.Fatalf("free admission %d holds its %s.%s", i, v.Type().Name(), name)
				}
			}
		}
	}
}

// TestFreeAdmissionsPinNoRig runs three callers on a cache cluster,
// drops the rig and collects: the callers' processes, the nodes' token
// buckets and the bytes the cluster stores must go while the list still
// holds the records their admissions ran on. A record that kept its
// cluster or its node would keep the bytes, one that kept its process or
// its waiter's bucket those. The finalizer cannot be on the Cluster
// itself, which may sit in a cycle, and a finalizer on an object in a
// cycle need not ever run.
func TestFreeAdmissionsPinNoRig(t *testing.T) {
	destest.EmptyFreeList(t, &admissions)
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
		_, c, callers, err := admissionCallers(t, payload.RealNoCopy(kept))
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range c.nodes {
			watch(n.tb, fmt.Sprintf("node %d's bucket", i))
		}
		for i, p := range callers {
			watch(p, fmt.Sprintf("caller %d", i))
		}
	}()
	if len(admissions.Items) == 0 {
		t.Fatal("the callers left no record on the list")
	}
	checkFreeAdmissionsHoldNothing(t)
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
			t.Fatalf("never collected: %v; a free admission still reaches the rig", left)
		}
	}
	if len(admissions.Items) == 0 {
		t.Fatal("the list gave up the records")
	}
}

// TestAdmissionsAcrossConcurrentRigs runs the callers on four rigs at
// once, each on its own goroutine and simulation, all taking records
// from and putting them back on the one list: each rig's run must be the
// run it makes alone, and the list must end holding only clean records,
// no more than four rigs had in flight.
func TestAdmissionsAcrossConcurrentRigs(t *testing.T) {
	destest.EmptyFreeList(t, &admissions)
	body := payload.Sized(10_000)
	alone, c, _, err := admissionCallers(t, body)
	if err != nil {
		t.Fatal(err)
	}
	want, wantAt, wantMeters := alone.Fired(), alone.Now(), c.Metrics()
	peak := len(admissions.Items)
	const rigs, runs = 4, 3
	done := make(chan string, rigs)
	for g := range rigs {
		go func() {
			for r := range runs {
				sim, c, _, err := admissionCallers(t, body)
				if err != nil {
					done <- fmt.Sprintf("rig %d, run %d: %v", g, r, err)
					return
				}
				if got, at, m := sim.Fired(), sim.Now(), c.Metrics(); got != want || at != wantAt || m != wantMeters {
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
	checkFreeAdmissionsHoldNothing(t)
	if n := len(admissions.Items); n < peak || n > rigs*peak {
		t.Errorf("%d records on the list, want between one rig's %d and four rigs' %d", n, peak, rigs*peak)
	}
}
