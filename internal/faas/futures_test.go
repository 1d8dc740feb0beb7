package faas

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// checkFreeFuturesHoldNothing fails t where a record on futures holds
// anything but its bound body and its waiters' empty room: a platform, a
// handler, an input, a result, a waiting process.
func checkFreeFuturesHoldNothing(t *testing.T) {
	t.Helper()
	futures.Mu.Lock()
	defer futures.Mu.Unlock()
	for i, f := range futures.Items {
		v := reflect.ValueOf(f).Elem()
		for k := range v.NumField() {
			name := v.Type().Field(k).Name
			if name != "runFn" && name != "waiters" && !v.Field(k).IsZero() {
				t.Fatalf("free future %d holds its %s", i, name)
			}
		}
		if len(f.waiters) != 0 {
			t.Fatalf("free future %d has %d waiters", i, len(f.waiters))
		}
		for _, w := range f.waiters[:cap(f.waiters)] {
			if w != nil {
				t.Fatalf("free future %d's waiters' room still holds a process", i)
			}
		}
	}
}

// result is what the test handlers return: a pointer, so that a record
// that kept its result would keep something a finalizer can watch, and
// one too large for the tiny allocator, which may batch it with live
// objects, so that the finalizer runs once nothing else keeps it.
type result struct{ in, _, _ int }

// speculativeRig runs a driver over one platform whose stragglers, one
// in three at 8x, force backups: a MapSpeculative of 16 inputs, then,
// while its losers still run, a MapSync and an Invoke of more, every
// input handled by handler. It returns the rig, run out, the platform
// and its processes: the driver's, then the invocations'.
func speculativeRig(handler func(ctx *Ctx, in any) (any, error)) (*des.Sim, *Platform, []*des.Proc, error) {
	sim := des.New(1)
	store, err := objectstore.New(sim, fastStoreConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := exactConfig()
	cfg.StragglerRate, cfg.StragglerSlowdown = 0.3, 8
	pf, err := New(sim, store, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var procs []*des.Proc
	if err := pf.Register("f", func(ctx *Ctx, in any) (any, error) {
		procs = append(procs, ctx.Proc)
		return handler(ctx, in)
	}); err != nil {
		return nil, nil, nil, err
	}
	var fail error
	procs = append(procs, sim.Spawn("driver", func(p *des.Proc) {
		fail = driveSpeculation(p, pf)
	}))
	if err := sim.Run(); err != nil {
		return nil, nil, nil, err
	}
	return sim, pf, procs, fail
}

// driveSpeculation is speculativeRig's driver: each input must come back
// as its own result, and the speculative map must have launched backups,
// each leaving a loser, the backup or its primary.
func driveSpeculation(p *des.Proc, pf *Platform) error {
	inputs := func(from, n int) []any {
		in := make([]any, n)
		for i := range in {
			in[i] = from + i
		}
		return in
	}
	check := func(what string, in, outs []any) error {
		for i, out := range outs {
			if r, ok := out.(*result); !ok || r.in != in[i].(int) {
				return fmt.Errorf("%s: input %v got %v", what, in[i], out)
			}
		}
		return nil
	}
	in := inputs(0, 16)
	outs, rep, err := pf.MapSpeculative(p, "f", in, InvokeOptions{})
	if err != nil {
		return err
	}
	if rep.Backups == 0 {
		return fmt.Errorf("no backups, so no loser")
	}
	if err := check("speculative map", in, outs); err != nil {
		return err
	}
	in = inputs(100, 16)
	if outs, err = pf.MapSync(p, "f", in, InvokeOptions{}); err != nil {
		return err
	}
	if err := check("map", in, outs); err != nil {
		return err
	}
	out, err := pf.Invoke(p, "f", 200, InvokeOptions{})
	if err != nil {
		return err
	}
	return check("invoke", []any{200}, []any{out})
}

// echo computes for a second and returns its input.
func echo(ctx *Ctx, in any) (any, error) {
	compute(ctx, time.Second)
	return &result{in: in.(int)}, nil
}

// TestFreeFuturesPinNoRig runs speculative, mapped and single
// invocations on a rig, drops the rig and collects: the driver's and the
// invocations' processes, their results, their handler and the bytes
// the platform's store keeps must go while the list still holds the
// records the invocations ran on. A record that kept its platform would
// keep the bytes, one that kept its handler or result those, and one
// that kept a waiter the driver. The inputs are ints, which a finalizer
// cannot watch; the field check holds a free record to no input.
func TestFreeFuturesPinNoRig(t *testing.T) {
	destest.EmptyFreeList(t, &futures)
	base := runtime.NumGoroutine()
	collected := make(chan string, 64)
	left := map[string]bool{}
	watch := func(v any, name string) {
		left[name] = true
		runtime.SetFinalizer(v, func(any) { collected <- name })
	}
	func() {
		kept := make([]byte, 4096)
		watch(&kept[0], "the stored bytes")
		marker := new(result)
		watch(marker, "the handler")
		inputs, results := 0, 0
		handler := func(ctx *Ctx, in any) (any, error) {
			if inputs == 0 {
				if err := ctx.Store.CreateBucket(ctx.Proc, "b"); err != nil {
					return nil, err
				}
				if err := ctx.Store.Put(ctx.Proc, "b", "k", payload.RealNoCopy(kept)); err != nil {
					return nil, err
				}
			}
			inputs++
			marker.in = inputs
			compute(ctx, time.Second)
			r := &result{in: in.(int)}
			if results < 8 {
				results++
				watch(r, fmt.Sprintf("result %d", results))
			}
			return r, nil
		}
		_, _, procs, err := speculativeRig(handler)
		if err != nil {
			t.Fatal(err)
		}
		watch(procs[0], "the driver")
		for i, p := range procs[1:] {
			watch(p, fmt.Sprintf("invocation %d", i))
		}
	}()
	if len(futures.Items) == 0 {
		t.Fatal("the invocations left no record on the list")
	}
	checkFreeFuturesHoldNothing(t)
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
			t.Fatalf("never collected: %v; a free future still reaches the rig", left)
		}
	}
	if len(futures.Items) == 0 {
		t.Fatal("the list gave up the records")
	}
}

// TestSpeculativeLosersKeepTheirRecords: the losers of a speculative map
// run on after it returns, while the driver's next invocations take
// records from the list. A loser's record must not be handed out before
// its process lets go of it: every record made is checked at each
// handler's start, and one whose invocation has not finished must still
// be the invocation it was when that started. Every input must come back
// as its own result.
func TestSpeculativeLosersKeepTheirRecords(t *testing.T) {
	destest.EmptyFreeList(t, &futures)
	fresh := futures.Fresh
	var made []*Future
	futures.Fresh = func(n int) *Future {
		f := fresh(n)
		made = append(made, f)
		return f
	}
	t.Cleanup(func() { futures.Fresh = fresh })
	// A handler's record is the one made with its invocation's id, and
	// nothing lies between the handler's return and its process letting go.
	running := map[*Future]int64{} // an invocation's record -> its id
	overlapped := 0
	handler := func(ctx *Ctx, in any) (any, error) {
		for f, id := range running {
			if f.id != id {
				return nil, fmt.Errorf("the record of invocation %d, still running, was handed to invocation %d", id, f.id)
			}
		}
		var own *Future
		for _, f := range made {
			if f.id == ctx.InvocationID {
				own = f
			}
		}
		if in.(int) >= 100 {
			overlapped += len(running)
		}
		running[own] = ctx.InvocationID
		defer delete(running, own)
		return echo(ctx, in)
	}
	_, pf, _, err := speculativeRig(handler)
	if err != nil {
		t.Fatal(err)
	}
	if overlapped == 0 {
		t.Fatal("no loser ran on past the speculative map")
	}
	if len(futures.Items) != len(made) {
		t.Errorf("%d records made, %d back on the list", len(made), len(futures.Items))
	}
	checkFreeFuturesHoldNothing(t)
	t.Logf("%d records for %d invocations", len(made), pf.Meter().Invocations)
}

// TestFuturesAcrossConcurrentRigs runs the speculative rig on four rigs
// at once, each on its own goroutine and simulation, all taking records
// from and putting them back on the one list: each rig's run must be the
// run it makes alone, and the list must end holding only clean records,
// no more than four rigs had in flight.
func TestFuturesAcrossConcurrentRigs(t *testing.T) {
	destest.EmptyFreeList(t, &futures)
	alone, pf, _, err := speculativeRig(echo)
	if err != nil {
		t.Fatal(err)
	}
	want, wantAt, wantMeter := alone.Fired(), alone.Now(), pf.Meter()
	peak := len(futures.Items)
	const rigs, runs = 4, 3
	done := make(chan string, rigs)
	for g := range rigs {
		go func() {
			for r := range runs {
				sim, pf, _, err := speculativeRig(echo)
				if err != nil {
					done <- fmt.Sprintf("rig %d, run %d: %v", g, r, err)
					return
				}
				if got, at, m := sim.Fired(), sim.Now(), pf.Meter(); got != want || at != wantAt || m != wantMeter {
					done <- fmt.Sprintf("rig %d, run %d: %d events to %v, %+v; alone %d to %v, %+v", g, r, got, at, m, want, wantAt, wantMeter)
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
	checkFreeFuturesHoldNothing(t)
	if n := len(futures.Items); n < peak || n > rigs*peak {
		t.Errorf("%d records on the list, want between one rig's %d and four rigs' %d", n, peak, rigs*peak)
	}
}

// TestInvokeAllocBudget: after a warm-up, a MapSync of n no-op
// invocations allocates no future and no spawn closure: n processes
// (96 B), n contexts (48 B) and their store clients (32 B), and its
// slices of futures and results. A future and the closure its process
// ran cost two more allocations an invocation (43 mallocs, 2,888 B at
// n = 8), the first waiter on a fresh future a third.
func TestInvokeAllocBudget(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sim, pf := newTestPlatform(t, exactConfig())
	if err := pf.Register("noop", func(*Ctx, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	const n = 8
	inputs := make([]any, n)
	var mallocs, bytes uint64
	sim.Spawn("driver", func(p *des.Proc) {
		for range 2 {
			if _, err := pf.MapSync(p, "noop", inputs, InvokeOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
		mallocs, bytes = allocated(func() {
			if _, err := pf.MapSync(p, "noop", inputs, InvokeOptions{}); err != nil {
				t.Error(err)
			}
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("a warm MapSync of %d: %d mallocs, %d B", n, mallocs, bytes)
	if wantM, wantB := uint64(3*n+2), uint64(n*(96+48+32)+n*8+n*16); mallocs != wantM || bytes != wantB {
		t.Errorf("a warm MapSync of %d allocates %d times, %d B; want %d, %d B: a process, a context and a client an invocation, and two slices",
			n, mallocs, bytes, wantM, wantB)
	}
}
