package objectstore

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// TestETagKnownValues pins both branches of etag: CRC32C's standard
// check value for a real payload, and the sized branch's FNV-1a text,
// which predates the CRC and must not move.
func TestETagKnownValues(t *testing.T) {
	if got := etag(payload.Real([]byte("123456789"))); got != "e3069283-9" {
		t.Errorf("real etag = %q, want e3069283-9 (CRC32C check value, length)", got)
	}
	if got := etag(payload.Sized(1024)); got != "ab1b90c657a51e69" {
		t.Errorf("sized etag = %q, want ab1b90c657a51e69 (FNV-1a of \"sized:1024\")", got)
	}
	if got := etag(payload.Real(nil)); got != "00000000-0" {
		t.Errorf("empty real etag = %q, want 00000000-0", got)
	}
}

// TestETagSizedMatchesFNV holds the sized branch, spelled out on the
// stack since PR 21, to hash/fnv and fmt over sizes of every digit
// count, and to the one allocation its result is.
func TestETagSizedMatchesFNV(t *testing.T) {
	for size := int64(0); size >= 0 && size < math.MaxInt64/7; size = size*7 + 3 {
		h := fnv.New64a()
		fmt.Fprintf(h, "sized:%d", size)
		if got, want := etag(payload.Sized(size)), fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Fatalf("sized etag of %d = %q, want %q", size, got, want)
		}
	}
	if destest.Race {
		return // the detector allocates
	}
	pl := payload.Sized(27_000)
	if n := testing.AllocsPerRun(100, func() { _ = etag(pl) }); n != 1 {
		t.Fatalf("sized etag: %.0f allocations, want 1 (the string)", n)
	}
}

// TestPropertyETagFollowsBytes: an object's ETag depends on its bytes
// and on nothing else. The same bytes uploaded by Put, as multipart
// parts, and by PutStream (below one part, and across several) carry
// one tag, in this simulation and in a fresh one; one flipped byte or a
// sized payload of the same length carries another.
func TestPropertyETagFollowsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 25; round++ {
		data := make([]byte, 3+rng.Intn(8192))
		rng.Read(data)
		flipped := append([]byte(nil), data...)
		flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
		part := int64(len(data)+2) / 3 // three parts

		tags := map[string]string{}
		head := func(p *des.Proc, c *Client, key string) {
			obj, err := c.Head(p, "b", key)
			if err != nil {
				t.Fatalf("head %s: %v", key, err)
			}
			tags[key] = obj.ETag()
		}
		stream := func(p *des.Proc, c *Client, key string, partBytes int64) {
			w := c.PutStream(p, "b", key, PutStreamOptions{PartBytes: partBytes})
			for off := 0; off < len(data); off += 100 {
				if err := w.Write(p, payload.Real(data[off:min(off+100, len(data))])); err != nil {
					t.Fatalf("stream %s: write: %v", key, err)
				}
			}
			if err := w.Close(p); err != nil {
				t.Fatalf("stream %s: close: %v", key, err)
			}
			head(p, c, key)
		}
		svc := newFast(t)
		runSim(t, svc, func(p *des.Proc) {
			c := NewClient(svc)
			_ = c.CreateBucket(p, "b")
			puts := map[string]payload.Payload{
				"put":     payload.Real(data),
				"flipped": payload.Real(flipped),
				"sized":   payload.Sized(int64(len(data))),
			}
			for key, pl := range puts {
				if err := c.Put(p, "b", key, pl); err != nil {
					t.Fatalf("put %s: %v", key, err)
				}
				head(p, c, key)
			}
			if err := putParts(p, svc, "b", "multipart", payload.Real(data), part, 2); err != nil {
				t.Fatalf("multipart: %v", err)
			}
			head(p, c, "multipart")
			stream(p, c, "stream-one-part", int64(len(data))+1)
			stream(p, c, "stream-parts", part)
		})
		other := newFast(t)
		runSim(t, other, func(p *des.Proc) {
			c := NewClient(other)
			_ = c.CreateBucket(p, "b")
			if err := c.Put(p, "b", "other-sim", payload.Real(data)); err != nil {
				t.Fatalf("put: %v", err)
			}
			head(p, c, "other-sim")
		})

		want := tags["put"]
		if want == "" {
			t.Fatalf("round %d: empty ETag", round)
		}
		for _, key := range []string{"multipart", "stream-one-part", "stream-parts", "other-sim"} {
			if tags[key] != want {
				t.Errorf("round %d (%d bytes): %s ETag %q, put ETag %q", round, len(data), key, tags[key], want)
			}
		}
		for _, key := range []string{"flipped", "sized"} {
			if tags[key] == want || tags[key] == "" {
				t.Errorf("round %d (%d bytes): %s ETag %q, put ETag %q: want different, non-empty", round, len(data), key, tags[key], want)
			}
		}
	}
}

// BenchmarkETagReal is Service.Head plus ETag on an 8 MiB real payload
// at zero simulated cost: the CRC32C over the stored bytes, which a
// caller pays when it asks for the tag and a PUT never does.
func BenchmarkETagReal(b *testing.B) {
	svc, err := New(des.New(1), fastConfig())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(15)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	svc.sim.Spawn("bench", func(p *des.Proc) {
		if err := svc.CreateBucket(p, "b"); err != nil {
			b.Error(err)
			return
		}
		if err := svc.Put(p, "b", "k", payload.RealNoCopy(data), 0); err != nil {
			b.Error(err)
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obj, err := svc.Head(p, "b", "k")
			if err != nil {
				b.Error(err)
				return
			}
			if obj.ETag() == "" {
				b.Error("empty ETag")
				return
			}
		}
	})
	if err := svc.sim.Run(); err != nil {
		b.Fatal(err)
	}
}
