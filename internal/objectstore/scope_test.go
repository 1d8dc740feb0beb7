package objectstore

import (
	"errors"
	"io"
	"testing"
	"time"
	"unsafe"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// TestCallbacksChargeTheCallersScope: what a request chain meters in its
// callbacks (the class counter, a PUT's body stored with the caller
// parked) and what a stream's producing side meters in its events (every
// chunk's egress, a throttled continuation) lands in the scope of the
// process that made the request or opened the stream. A request from
// outside any scope charges the meters alone.
func TestCallbacksChargeTheCallersScope(t *testing.T) {
	cfg := fastConfig()
	cfg.RequestLatency = time.Millisecond
	cfg.PerConnBandwidth = 1e6
	svc, err := New(des.New(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(svc)
	var lead *des.Scope
	var inside Metrics
	runSim(t, svc, func(p *des.Proc) {
		if err := c.CreateBucket(p, "b"); err != nil {
			t.Fatal(err)
		}
		lead = p.LeadScope()
		before := svc.Metrics()
		if _, err := c.PutEach(p, "b", 4, func(i int) (string, payload.Payload) {
			return string(rune('a' + i)), payload.Sized(int64(1000 * (i + 1)))
		}); err != nil {
			t.Fatal(err)
		}
		var read des.WaitGroup
		read.Add(1)
		p.Spawn("reader", func(r *des.Proc) {
			defer read.Done()
			st, err := c.GetStream(r, "b", "d", 0, -1, StreamOptions{ChunkBytes: 512})
			if err != nil {
				t.Error(err)
				return
			}
			svc.SetBrownout(0.3) // continuations draw failures; the client resumes
			defer svc.SetBrownout(0)
			for {
				if _, err := st.Next(r); errors.Is(err, io.EOF) {
					return
				} else if err != nil {
					t.Error(err)
					return
				}
			}
		})
		read.Wait(p)
		inside = svc.Metrics().Sub(before)
		p.EndScope()
		if _, err := c.Get(p, "b", "a"); err != nil {
			t.Error(err)
		}
	})
	scoped := svc.Ledger().Scope(lead)
	inside.ByteSeconds = 0 // stored volume is no request's: the executor splits it
	if scoped != inside {
		t.Errorf("scope charged %+v, store metered %+v inside it", scoped, inside)
	}
	if scoped.BytesIn != 10000 || scoped.BytesOut != 4000 || scoped.Throttled == 0 {
		t.Errorf("scope %+v: want 10000 bytes in, 4000 out and a throttled continuation", scoped)
	}
	if total := svc.Metrics(); total.ClassBOps != scoped.ClassBOps+1 || total.BytesOut != scoped.BytesOut+1000 {
		t.Errorf("the GET outside the scope: store %+v, scope %+v", total, scoped)
	}
}

// TestStreamSizeClass: a stream is one object, its reader's, holding
// the producer state machine, the window and the retry budget. It keeps
// what its name is made of (bucket, key, sequence, offset) in place of
// the name and reaches the service and its flow cap through its client,
// which keeps it in the 176-byte size class; paper-sweep opens one per
// mapper slice and run, workers² of them in one GetStreams slice per
// reducer.
func TestStreamSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(ClientStream{}); got > 176 {
		t.Errorf("ClientStream is %d bytes, want at most 176", got)
	}
}
