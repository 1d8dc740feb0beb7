package objectstore

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// growScript is what TestGrowIsInvisible does to a bucket, step by step:
// new keys, overwrites, deletes of present and absent keys, and new keys
// after the deletes, through requests that pay latency and can fail.
var growScript = []func(svc *Service, p *des.Proc) []error{
	func(svc *Service, p *des.Proc) []error { return growPuts(svc, p, 0, 10, 1_000) },
	func(svc *Service, p *des.Proc) []error { return growPuts(svc, p, 3, 5, 7_000) }, // overwrites
	func(svc *Service, p *des.Proc) []error {
		return []error{svc.Delete(p, "b", "k01"), svc.Delete(p, "b", "k02"), svc.Delete(p, "b", "absent")}
	},
	func(svc *Service, p *des.Proc) []error { return growPuts(svc, p, 10, 40, 300) },
	func(svc *Service, p *des.Proc) []error {
		var errs []error
		for i := 10; i < 35; i++ {
			errs = append(errs, svc.Delete(p, "b", fmt.Sprintf("k%02d", i)))
		}
		return errs
	},
	func(svc *Service, p *des.Proc) []error { return growPuts(svc, p, 40, 60, 2_500) },
}

// growPuts stores keys k<from> .. k<to-1>, every third of them real bytes.
func growPuts(svc *Service, p *des.Proc, from, to int, size int64) []error {
	var errs []error
	for i := from; i < to; i++ {
		pl := payload.Sized(size + int64(i))
		if i%3 == 0 {
			pl = payload.Real([]byte(strings.Repeat(string(rune('a'+i%26)), int(size)+i)))
		}
		errs = append(errs, svc.Put(p, "b", fmt.Sprintf("k%02d", i), pl, 0))
	}
	return errs
}

// playGrowScript runs growScript on a fresh service, calling Grow(n) on
// the bucket before step i for every {i, n} of grows (i == len(growScript):
// after the last), and returns everything a caller could observe.
func playGrowScript(t *testing.T, grows [][2]int) string {
	t.Helper()
	cfg := Config{
		RequestLatency:   time.Millisecond,
		PerConnBandwidth: 1e6,
		ReadOpsPerSec:    2_000,
		WriteOpsPerSec:   1_000,
		OpsBurst:         4,
		ListPageSize:     7,
		FailureRate:      0.1,
	}
	sim := des.New(11)
	svc, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	logf := func(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }
	observe := func(step int) {
		logf("step %d @%v stored %d fired %d meters %+v", step, sim.Now(), svc.StoredBytes(), sim.Fired(), svc.Metrics())
	}
	grow := func(step int) {
		for _, g := range grows {
			if g[0] == step {
				svc.Grow("b", g[1])
			}
		}
	}
	sim.Spawn("script", func(p *des.Proc) {
		for svc.CreateBucket(p, "b") != nil {
		}
		for i, step := range growScript {
			grow(i)
			logf("errors %v", step(svc, p))
			observe(i)
		}
		grow(len(growScript))
		for after := ""; ; {
			page, err := svc.List(p, "b", "k", after, 0)
			logf("list after %q: %v %v", after, page, err)
			if err == nil && !page.Truncated {
				break
			}
			if err == nil {
				after = page.Keys[len(page.Keys)-1]
			}
		}
		for i := range 62 {
			key := fmt.Sprintf("k%02d", i)
			obj, err := svc.Head(p, "b", key)
			logf("head %s: %s %d %v %s %v", key, obj.Key, obj.Size, obj.LastModified, obj.ETag(), err)
			pl, err := svc.Get(p, "b", key, 0)
			if err != nil {
				logf("get %s: %v", key, err)
				continue
			}
			raw, _ := pl.Bytes()
			logf("get %s: %d crc %08x", key, pl.Size(), crc32.ChecksumIEEE(raw))
		}
		observe(len(growScript))
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	logf("end @%v fired %d next draw %d", sim.Now(), sim.Fired(), sim.Rand().Int63())
	return out.String()
}

// TestGrowIsInvisible: a bucket grown before, between and after Puts,
// overwrites and Deletes answers every request as one never grown, and
// the simulation fires, draws and meters the same. Grow on an absent
// bucket makes none, and a Grow the map can already hold makes no new
// map, however the map came to hold that many.
func TestGrowIsInvisible(t *testing.T) {
	want := playGrowScript(t, nil)
	for _, grows := range [][][2]int{
		{{0, 60}},
		{{0, 5}, {1, 3}, {2, 200}},
		{{3, 30}, {4, 1}, {5, 20}},
		{{6, 1_000}},
		{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}},
	} {
		if got := playGrowScript(t, grows); got != want {
			t.Errorf("grown %v: the bucket answered otherwise\n--- grown\n%s--- never grown\n%s", grows, got, want)
		}
	}

	svc := newFast(t)
	svc.Grow("absent", 100)
	if len(svc.buckets) != 0 {
		t.Errorf("Grow on an absent bucket made %d", len(svc.buckets))
	}
	b := newBucket("b")
	svc.buckets["b"] = b
	objects := func() uintptr { return uintptr(reflect.ValueOf(b.objects).UnsafePointer()) }
	svc.Grow("b", 100)
	grown := objects()
	for _, n := range []int{50, 100, 0, -3} {
		if svc.Grow("b", n); objects() != grown {
			t.Errorf("Grow(%d) after Grow(100) made a new map", n)
		}
	}
	// A bucket never grown, whose map rehashed its way to 100 objects
	// and kept 10 of them, has room for 90 more and not for 91.
	b = newBucket("c")
	svc.buckets["c"] = b
	runSim(t, svc, func(p *des.Proc) {
		for i := range 100 {
			svc.keep(b, fmt.Sprintf("k%03d", i), payload.Sized(1))
		}
		for i := range 90 {
			if err := svc.Delete(p, "c", fmt.Sprintf("k%03d", i)); err != nil {
				t.Error(err)
			}
		}
	})
	held := objects()
	if svc.Grow("c", 90); objects() != held {
		t.Error("Grow(90) with 10 of 100 objects left made a new map")
	}
	if svc.Grow("c", 91); objects() == held {
		t.Error("Grow(91) with 10 of 100 objects left kept the map")
	}
}

// TestGrownBucketKeepsWithoutGrowing: after Grow(n), n PUTs of new keys
// allocate nothing, not a map, not a table of one; without the Grow they
// do. The count is the process's, so each bucket is measured three times
// afresh and the fewest taken: a collection's own start-up can land in
// one.
func TestGrownBucketKeepsWithoutGrowing(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	const n = 2_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("job-000017/m%04d_r%04d", i/64, i%64)
	}
	body := payload.Sized(27_000)
	each := func(i int) (string, payload.Payload) { return keys[i], body }
	svc := newFast(t)
	mallocs := map[bool]uint64{}
	runSim(t, svc, func(p *des.Proc) {
		c := NewClient(svc)
		for try := range 3 {
			for _, grown := range []bool{true, false} {
				bkt := fmt.Sprintf("%v-%d", grown, try)
				if err := c.CreateBucket(p, bkt); err != nil {
					t.Error(err)
					return
				}
				if grown {
					svc.Grow(bkt, n)
				}
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if stored, err := c.PutEach(p, bkt, n, each); stored != n || err != nil {
					t.Errorf("PutEach: %d, %v", stored, err)
					return
				}
				runtime.ReadMemStats(&after)
				if got := after.Mallocs - before.Mallocs; try == 0 || got < mallocs[grown] {
					mallocs[grown] = got
				}
			}
		}
	})
	if mallocs[true] != 0 {
		t.Errorf("%d new keys into a bucket grown for them: %d allocations, want 0", n, mallocs[true])
	}
	if mallocs[false] == 0 {
		t.Errorf("%d new keys into a bucket not grown: no allocation; the measure sees nothing", n)
	}
	t.Logf("%d new keys: %d allocations grown, %d not", n, mallocs[true], mallocs[false])
}
