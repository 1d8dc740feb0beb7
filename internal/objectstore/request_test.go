package objectstore

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// TestRequestAllocBudget holds throttled requests (every one waits for
// its token) to what they allocate: a one-chunk stream opened, drained
// and closed 2 (the stream and its bound step); 64 in a list opened into
// fresh storage 1 each (the step), and into storage Reclaim gave back
// nothing, each stream's step bound at its storage's first open. A Put over a key that exists
// allocates nothing, alone or 64 in a list: the bucket keeps a payload
// and an instant in the slot the key already has, and the ETag, once
// the one allocation a PUT made, is computed only when a caller asks
// for it. A chain's record, its token waiter and its events go back to
// the process's free list, so being a chain costs nothing, and one
// caller's requests, one after another, reuse one record.
func TestRequestAllocBudget(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	destest.EmptyFreeList(t, &requests)
	cfg := fastCfg()
	cfg.ReadOpsPerSec, cfg.WriteOpsPerSec, cfg.OpsBurst = 1000, 1000, 1
	sim := des.New(7)
	svc, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("job-000017/m003/r%03d", i)
	}
	body := payload.Sized(27_000)
	each := func(i int) (string, payload.Payload) { return keys[i], body }
	var put, open, putList, openFresh, openList float64
	sim.Spawn("probe", func(p *des.Proc) {
		c := NewClient(svc)
		if err := c.CreateBucket(p, "shuffle"); err != nil {
			t.Error(err)
			return
		}
		puts := func() {
			if n, err := c.PutEach(p, "shuffle", len(keys), each); n != len(keys) || err != nil {
				t.Errorf("PutEach: %d, %v", n, err)
			}
		}
		puts()
		drain := func(cs *ClientStream) {
			for {
				if _, err := cs.Next(p); err != nil {
					if !errors.Is(err, io.EOF) {
						t.Error(err)
					}
					break
				}
			}
			cs.Close()
		}
		put = testing.AllocsPerRun(200, func() {
			if err := c.Put(p, "shuffle", keys[0], body); err != nil {
				t.Error(err)
			}
		})
		open = testing.AllocsPerRun(200, func() {
			cs, err := c.GetStream(p, "shuffle", keys[0], 0, -1, StreamOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			drain(cs)
		})
		putList = testing.AllocsPerRun(20, puts)
		openInto := func(streams []ClientStream) {
			n, err := c.GetStreams(p, streams, "shuffle", keys, 0, -1, StreamOptions{})
			if err != nil {
				t.Error(err)
			}
			for i := range n {
				drain(&streams[i])
			}
			if !Reclaim(streams) {
				t.Error("streams read to io.EOF and closed were not reclaimed")
			}
		}
		// AllocsPerRun calls its function once more than it averages over.
		fresh := make([][]ClientStream, 21)
		for i := range fresh {
			fresh[i] = make([]ClientStream, len(keys))
		}
		openFresh = testing.AllocsPerRun(20, func() {
			openInto(fresh[0])
			fresh = fresh[1:]
		})
		reclaimed := make([]ClientStream, len(keys))
		openList = testing.AllocsPerRun(20, func() { openInto(reclaimed) })
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	t.Logf("Put %.1f, GetStream %.1f, PutEach of 64 %.1f, GetStreams of 64 %.1f fresh, %.1f reclaimed",
		put, open, putList, openFresh, openList)
	// A list of 64 opens into fresh storage is 64 bound steps.
	if put > 0 || open > 2 || putList > 0 || openFresh > 64 || openList > 0 {
		t.Errorf("allocations: Put %.1f (budget 0), GetStream %.1f (2), PutEach of 64 %.1f (0), GetStreams of 64 %.1f fresh (64), %.1f reclaimed (0)",
			put, open, putList, openFresh, openList)
	}
	if n := len(requests.Items); n != 1 {
		t.Errorf("%d chain records recycled by one caller's requests, want the same 1", n)
	}
}

// TestRequestSurvivesStrayWakes wakes a caller every 700 us, for no
// reason, through a list PUT and a list open whose tokens it waits for:
// gate, deficit, latency, body, between elements. A wake the chain did
// not arrange must send the caller back to sleep, not return a request
// half done: the calls complete when they would have, with the same
// meters, and the stray wakes cost their own events and nothing else.
func TestRequestSurvivesStrayWakes(t *testing.T) {
	run := func(stray bool) (log []string, m Metrics, fired int64) {
		cfg := plainCfg()
		cfg.ReadOpsPerSec, cfg.WriteOpsPerSec, cfg.OpsBurst = 200, 200, 1
		sim := des.New(3)
		svc, err := New(sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.buckets["a"] = newBucket("a")
		keys, _ := listOf("k", 6, 0)
		done := false
		caller := sim.Spawn("caller", func(p *des.Proc) {
			c := NewClient(svc)
			n, err := c.PutEach(p, "a", len(keys), func(i int) (string, payload.Payload) {
				return keys[i], payload.Sized(int64(i%3) * 5_000) // empty bodies too
			})
			log = append(log, fmt.Sprintf("@%d put %d: %v", p.Now(), n, err))
			streams := make([]ClientStream, len(keys))
			opened, err := c.GetStreams(p, streams, "a", keys, 0, -1, StreamOptions{})
			log = append(log, fmt.Sprintf("@%d opened %d: %v", p.Now(), opened, err))
			for i := range opened {
				for err = nil; err == nil; {
					_, err = streams[i].Next(p)
				}
				log = append(log, fmt.Sprintf("@%d read %d: %v", p.Now(), i, err))
			}
			m, done = svc.Metrics(), true
		})
		var wakes int64
		var janitor func()
		janitor = func() {
			if done {
				return
			}
			wakes++
			caller.Wake()
			sim.After(700*time.Microsecond, janitor)
		}
		if stray {
			sim.After(0, janitor)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if open := svc.OpenStreams(); len(open) != 0 {
			t.Errorf("streams left open: %v", open)
		}
		return log, m, sim.Fired() - wakes // the janitor's own callbacks aside
	}
	quiet, qm, qf := run(false)
	noisy, nm, nf := run(true)
	if !slices.Equal(noisy, quiet) {
		t.Errorf("with stray wakes:\n%s\nwithout:\n%s", strings.Join(noisy, "\n"), strings.Join(quiet, "\n"))
	}
	if nm != qm {
		t.Errorf("meters with stray wakes %+v, without %+v", nm, qm)
	}
	// A stray wake costs one activation when the caller was parked with
	// no wake pending, and nothing when the chain's own was armed.
	if nf < qf+50 {
		t.Errorf("%d events with stray wakes, %d without: the wakes did not land", nf, qf)
	}
	t.Logf("%d lines equal; %d stray activations", len(quiet), nf-qf)
}

// TestRequestKilledAtHorizon stops seeded callers with RunUntil, which
// kills every one of them, in four places: mid-PutEach, mid-GetStreams,
// inside a Get's, a GetRange's or an UploadPart's body, and queued at a
// token gate with a failure rate in force. Then it runs out what is left
// on the heap. A killed caller's chain must stop with it: after the
// resumed run no operation or byte has been charged for one, nothing
// stored, no stream opened and no part kept, and the simulation's RNG
// stands where it stood at the horizon (one run reads the next draw
// there, another after the resumed run). A stream opened before the
// horizon goes on filling its prefetch window, as a stream whose reader
// walked away does: the bytes it moves are the stream's, so the list
// case leaves its BytesOut out.
func TestRequestKilledAtHorizon(t *testing.T) {
	ms := time.Millisecond
	type reading struct {
		m                      Metrics
		stored                 int64
		keys, parts            int
		streams                int64
		flows, finished, calls int
		next                   int64
	}
	cases := []struct {
		name    string
		horizon time.Duration
		cfg     func(*Config)
		call    func(c *Client, p *des.Proc, i int) error
		// live checks that the horizon fell where the case says.
		live func(at reading) bool
		// streamsOpen: BytesOut may grow after the horizon.
		streamsOpen bool
	}{
		{
			name: "mid-PutEach", horizon: 50 * ms,
			cfg: func(c *Config) { c.FailureRate = 0.2 },
			call: func(c *Client, p *des.Proc, i int) error {
				_, err := c.PutEach(p, "a", 6, func(j int) (string, payload.Payload) {
					return fmt.Sprintf("c%d/o%d", i, j), payload.Sized(10_000)
				})
				return err
			},
			live: func(at reading) bool { return at.m.BytesIn > 0 && at.calls == 0 },
		},
		{
			name: "mid-GetStreams", horizon: 35 * ms, streamsOpen: true,
			cfg: func(c *Config) { c.FailureRate = 0.2 },
			call: func(c *Client, p *des.Proc, i int) error {
				keys, _ := listOf("pre", 6, 0)
				streams := make([]ClientStream, len(keys))
				n, err := c.GetStreams(p, streams, "a", keys, 0, -1, StreamOptions{})
				for j := range n {
					streams[j].Close()
				}
				return err
			},
			live: func(at reading) bool { return at.streams > 0 && at.calls == 0 },
		},
		{
			name: "in a body", horizon: 50 * ms,
			call: func(c *Client, p *des.Proc, i int) error {
				var err error
				switch i % 3 {
				case 0:
					_, err = c.Get(p, "a", "pre0")
				case 1:
					_, err = c.GetRange(p, "a", "pre1", 1_000, 90_000)
				case 2:
					var id string
					if id, err = c.svc.CreateMultipartUpload(p, "a", fmt.Sprintf("c%d/mp", i)); err == nil {
						err = c.svc.UploadPart(p, id, 1, payload.Sized(100_000), 0)
					}
				}
				return err
			},
			live: func(at reading) bool { return at.flows > 0 && at.finished == 0 && at.calls == 0 },
		},
		{
			name: "at a token gate", horizon: 35 * ms,
			cfg: func(c *Config) {
				c.WriteOpsPerSec, c.ReadOpsPerSec, c.OpsBurst = 50, 50, 1
				c.FailureRate = 0.3
			},
			call: func(c *Client, p *des.Proc, i int) error {
				if i%2 == 0 {
					return c.Put(p, "a", fmt.Sprintf("c%d/o", i), payload.Sized(1_000))
				}
				_, err := c.Get(p, "a", "pre2")
				return err
			},
			// Tokens come 20 ms apart a class: at most two callers of each
			// have had one, and the others are queued.
			live: func(at reading) bool { return at.m.ClassAOps+at.m.ClassBOps+at.m.Throttled <= 4 },
		},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			run := func(resume bool) reading {
				cfg := plainCfg()
				if tc.cfg != nil {
					tc.cfg(&cfg)
				}
				sim := des.New(seed)
				svc, err := New(sim, cfg)
				if err != nil {
					t.Fatal(err)
				}
				svc.buckets["a"] = newBucket("a")
				for j := 0; j < 6; j++ {
					svc.buckets["a"].objects[fmt.Sprintf("pre%d", j)] = stored{payload: payload.Sized(100_000)}
				}
				// Where each caller stands at the horizon is the seed's.
				jitter := rand.New(rand.NewSource(seed))
				var rd reading
				for i := 0; i < 9; i++ {
					start := time.Duration(jitter.Intn(8_000)) * time.Microsecond
					sim.Spawn(fmt.Sprintf("caller%d", i), func(p *des.Proc) {
						p.Sleep(start)
						if err := tc.call(NewClient(svc), p, i); err != nil && !errors.Is(err, ErrSlowDown) {
							t.Errorf("%s, seed %d: caller %d: %v", tc.name, seed, i, err)
						}
						rd.calls++
					})
				}
				if err := sim.RunUntil(tc.horizon); !errors.Is(err, des.ErrSimLimit) {
					t.Fatalf("%s, seed %d: RunUntil: %v", tc.name, seed, err)
				}
				if resume {
					if err := sim.Run(); err != nil {
						t.Fatalf("%s, seed %d: resumed run: %v", tc.name, seed, err)
					}
				}
				rd.m, rd.stored, rd.keys = svc.metrics.Total, svc.curBytes, len(svc.buckets["a"].objects)
				for _, up := range svc.uploads {
					rd.parts += len(up.parts)
				}
				rd.streams = svc.streamSeq
				rd.flows, rd.finished = svc.link.ActiveFlows(), int(svc.link.Transfers())
				rd.next = sim.Rand().Int63()
				return rd
			}
			at, after := run(false), run(true)
			if !tc.live(at) {
				t.Fatalf("%s, seed %d: the horizon no longer falls mid-call: %+v", tc.name, seed, at)
			}
			if tc.streamsOpen {
				after.m.BytesOut = at.m.BytesOut
			}
			if after.m != at.m || after.stored != at.stored || after.keys != at.keys || after.parts != at.parts || after.streams != at.streams {
				t.Errorf("%s, seed %d: the killed callers' requests went on\n at the horizon %+v\n after the run  %+v", tc.name, seed, at, after)
			}
			if after.next != at.next {
				t.Errorf("%s, seed %d: the RNG was drawn from for a killed caller", tc.name, seed)
			}
		}
	}
}
