package objectstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// The differential oracle for a stream's state machine: the producer
// process it replaced in PR 21, as it stood at commit 2dfa12d, kept here
// and nowhere else. The claim it holds the state machine to is strong:
// not "the same chunks" but the same events in the same order, so that
// no seeded number anywhere above the store moves. Every scenario runs
// twice on the same seed, once per form, and the two runs must agree on
// every delivery instant, every error Next returned, the kernel's event
// count, the store's meters, the link's counters, and the next number
// out of the simulation's RNG.

// procStream is the process form of a stream's producing side.
type procStream struct {
	svc     *Service
	opts    StreamOptions
	flowCap float64

	ready  []payload.Payload
	err    error
	eof    bool
	closed bool

	consumer *des.Proc // parked in Next waiting for a chunk
	producer *des.Proc // parked behind a full prefetch window
}

// openProcStream is the process-form GetStream: same admission, same
// range resolution, same name, and a Spawn where the state machine
// schedules its first step.
func openProcStream(s *Service, p *des.Proc, bkt, key string, off, n int64, opts StreamOptions, flowCap float64) (*procStream, error) {
	obj, err := s.Head(p, bkt, key)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		n = obj.Size - off
		if n < 0 {
			n = 0
		}
	}
	rng, err := obj.pl.Slice(off, n)
	if err != nil {
		return nil, fmt.Errorf("get stream %s/%s: %w", bkt, key, err)
	}
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = DefaultStreamChunk
	}
	st := &procStream{svc: s, opts: opts, flowCap: flowCap}
	s.streamSeq++
	name := fmt.Sprintf("objectstore/stream#%d/%s/%s@%d", s.streamSeq, bkt, key, off)
	s.sim.Spawn(name, func(prod *des.Proc) { st.produce(prod, rng) })
	return st, nil
}

func (st *procStream) produce(prod *des.Proc, rng payload.Payload) {
	size := rng.Size()
	for off := int64(0); off < size; {
		if st.closed {
			return
		}
		if off > 0 {
			if err := procFailMaybe(st.svc, prod); err != nil {
				st.fail(err)
				return
			}
		}
		n := st.opts.ChunkBytes
		if off+n > size {
			n = size - off
		}
		pl, err := rng.Slice(off, n)
		if err != nil {
			st.fail(err)
			return
		}
		st.svc.link.Transfer(prod, n, st.svc.connCap(st.flowCap))
		st.svc.metrics.Total.BytesOut += n
		if st.closed {
			return
		}
		off += n
		st.ready = append(st.ready, pl)
		st.wakeConsumer()
		for len(st.ready) >= streamDepth && !st.closed {
			st.producer = prod
			prod.Park()
			st.producer = nil
		}
	}
	st.eof = true
	st.wakeConsumer()
}

func (st *procStream) fail(err error) {
	st.err = err
	st.wakeConsumer()
}

func (st *procStream) wakeConsumer() {
	if st.consumer != nil {
		st.consumer.Wake()
	}
}

func (st *procStream) Next(p *des.Proc) (payload.Payload, error) {
	if st.closed {
		return nil, ErrStreamClosed
	}
	for len(st.ready) == 0 && st.err == nil && !st.eof {
		st.consumer = p
		p.Park()
		st.consumer = nil
	}
	if len(st.ready) > 0 {
		pl := st.ready[0]
		st.ready = st.ready[1:]
		if st.producer != nil {
			st.producer.Wake()
		}
		return pl, nil
	}
	if st.err != nil {
		return nil, st.err
	}
	return nil, io.EOF
}

func (st *procStream) Close() {
	st.closed = true
	st.ready = nil
	if st.producer != nil {
		st.producer.Wake()
	}
}

// chunkSource is what a scenario's consumer drives: either form.
type chunkSource interface {
	Next(p *des.Proc) (payload.Payload, error)
	Close()
}

// streamOpener opens reader i's stream.
type streamOpener func(s *Service, p *des.Proc, i int, off, n int64, opts StreamOptions, flowCap float64) (chunkSource, error)

// machineStream is the state machine as the producer process was
// driven: a throttled continuation ends the stream with ErrSlowDown.
type machineStream struct{ *ClientStream }

func (st machineStream) Next(p *des.Proc) (payload.Payload, error) {
	return rawNext(st.ClientStream, p)
}

func openMachine(s *Service, p *des.Proc, _ int, off, n int64, opts StreamOptions, flowCap float64) (chunkSource, error) {
	st, err := openStream(s, p, "b", "k", off, n, opts, flowCap)
	if err != nil {
		return nil, err // not a typed nil in the interface
	}
	return machineStream{st}, nil
}

func openProc(s *Service, p *des.Proc, _ int, off, n int64, opts StreamOptions, flowCap float64) (chunkSource, error) {
	st, err := openProcStream(s, p, "b", "k", off, n, opts, flowCap)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// oracleReader is one consumer of a scenario.
type oracleReader struct {
	startAt time.Duration
	off, n  int64 // n < 0: through the end of the object
	opts    StreamOptions
	flowCap float64       // the reader's client's cap
	cpu     time.Duration // consumer work per chunk
	// closeAfter chunks the reader sleeps closeDelay and closes (0 with
	// no delay: before the stream's first event; with a delay: during a
	// chunk in flight or at a full window); negative reads to io.EOF or
	// an error and closes after that. nextAfterClose then asks once more.
	closeAfter     int
	closeDelay     time.Duration
	nextAfterClose bool
}

type oracleScenario struct {
	seed    int64
	cfg     Config
	objSize int64
	real    bool
	readers []oracleReader
	// brownouts are SetBrownout calls at fixed instants.
	brownouts []struct {
		at   time.Duration
		rate float64
	}
}

// streamOracle holds the state machine to the producer process.
var streamOracle = destest.Pair[oracleScenario]{New: streamOpener(openMachine).play, Old: streamOpener(openProc).play}

// play is the stream oracle's Form: every reader's deliveries and errors
// with their instants, in event order, then the store's meters, the
// link's counters, the next draw and the streams left open.
func (open streamOpener) play(t *testing.T, sc oracleScenario, tr *destest.Transcript) destest.Run {
	sim := des.New(sc.seed)
	svc, err := New(sim, sc.cfg)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	var obj payload.Payload = payload.Sized(sc.objSize)
	if sc.real {
		data := make([]byte, sc.objSize)
		for i := range data {
			data[i] = byte('a' + (i*131)%26)
		}
		obj = payload.RealNoCopy(data)
	}
	// Stored directly: the setup must not draw from the RNG a different
	// number of times in the two runs, and with a failure rate a client's
	// retries would make that hard to see.
	svc.buckets["b"] = newBucket("b")
	svc.buckets["b"].objects["k"] = stored{payload: obj}
	for _, b := range sc.brownouts {
		rate := b.rate
		sim.Schedule(b.at, func() { svc.SetBrownout(rate) })
	}
	deliveries := map[time.Duration]int{}
	logf := func(i int, p *des.Proc, format string, args ...any) {
		tr.Logf("r%02d @%d %s", i, p.Now(), fmt.Sprintf(format, args...))
	}
	for i, r := range sc.readers {
		sim.Spawn(fmt.Sprintf("reader%02d", i), func(p *des.Proc) {
			p.Sleep(r.startAt)
			var st chunkSource
			for attempt := 0; ; attempt++ {
				var err error
				if st, err = open(svc, p, i, r.off, r.n, r.opts, r.flowCap); err == nil {
					break
				}
				logf(i, p, "open: %v", err)
				if !errors.Is(err, ErrSlowDown) || attempt == 3 {
					return
				}
			}
			logf(i, p, "opened")
			for got := 0; r.closeAfter < 0 || got < r.closeAfter; got++ {
				pl, err := st.Next(p)
				if err != nil {
					logf(i, p, "next: %v", err)
					break
				}
				deliveries[p.Now()]++
				if raw, ok := pl.Bytes(); ok {
					logf(i, p, "chunk %d crc %08x", pl.Size(), crc32.ChecksumIEEE(raw))
				} else {
					logf(i, p, "chunk %d", pl.Size())
				}
				if r.cpu > 0 {
					p.Sleep(r.cpu)
				}
			}
			if r.closeDelay > 0 {
				p.Sleep(r.closeDelay)
			}
			st.Close()
			st.Close() // twice is once
			logf(i, p, "closed")
			if r.nextAfterClose {
				_, err := st.Next(p)
				logf(i, p, "next after close: %v", err)
			}
		})
	}
	return destest.Run{Kernel: sim, After: func() {
		m := svc.Metrics()
		tr.Logf("meters %+v", m)
		tr.Logf("link: %d transfers, %v bytes", svc.link.Transfers(), svc.link.BytesMoved())
		tr.Logf("next draw %d", sim.Rand().Int63())
		// The process form lists no stream, so this holds the state
		// machine to leaving none open.
		tr.Logf("open %v", svc.OpenStreams())
		// Coverage: what the scenario reached.
		tr.Counts["chunk flows"] += svc.link.Transfers()
		tr.Counts["throttles"] += m.Throttled
		for _, n := range deliveries {
			if n >= 2 {
				tr.Counts["ties"]++
			}
		}
		for _, rd := range sc.readers {
			if rd.closeAfter >= 0 {
				tr.Counts["closed early"]++
			}
		}
	}}
}

// maxOracleReaders bounds a scenario's readers (genOracleScenario).
const maxOracleReaders = 64

// reclaimReach is what a reclaimed form's opens reached: opens into
// storage whose step an earlier scenario bound, and those of them that
// opened a byte-less range of two or more full chunks and a tail at a
// chunk size other than the element's last open's, where a full-chunk
// payload left over from that open would show.
type reclaimReach struct{ rebound, rechunked int }

// reclaimedForm is the state machine opened into reclaimed storage:
// reader i opens into element i of the storage every reader of the
// previous scenario played in this form opened into, finished and
// Reclaim gave back, each element's step bound by an earlier scenario's
// stream on another simulation. Its scenarios must be played one after
// another, as Sweep and Fuzz play them.
func reclaimedForm() (form destest.Form[oracleScenario], reach *reclaimReach) {
	var storage []ClientStream
	var lastChunk []int64 // of each element's last open
	reach = new(reclaimReach)
	return func(t *testing.T, sc oracleScenario, tr *destest.Transcript) destest.Run {
		if storage == nil {
			storage = make([]ClientStream, maxOracleReaders)
			lastChunk = make([]int64, maxOracleReaders)
		}
		streams := storage[:len(sc.readers)]
		open := func(s *Service, p *des.Proc, i int, off, n int64, opts StreamOptions, flowCap float64) (chunkSource, error) {
			st := &streams[i]
			rebound := st.stepFn != nil && st.state == unopened
			st.reset(&Client{svc: s, FlowCap: flowCap})
			if err := st.open(p, "b", "k", off, n, opts); err != nil {
				return nil, err
			}
			if rebound {
				reach.rebound++
				if !sc.real && st.size/st.chunk >= 2 && st.size%st.chunk != 0 && lastChunk[i] != st.chunk {
					reach.rechunked++
				}
			}
			lastChunk[i] = st.chunk
			return machineStream{st}, nil
		}
		run := streamOpener(open).play(t, sc, tr)
		after := run.After
		run.After = func() {
			after()
			// Every reader has closed and the heap is drained: nothing of
			// the storage may still run.
			if !Reclaim(streams) {
				t.Errorf("a drained scenario's streams were not reclaimed")
				storage = nil
			}
		}
		return run
	}, reach
}

// genOracleScenario draws one scenario. Most have every reader ask for
// the same range at the same instant with the same cap, so that chunk
// flows of equal size finish together and their order falls to when
// each joined the link: the tie a state machine that put its flows on
// in another order would break the other way.
func genOracleScenario(r *rand.Rand, seed int64) oracleScenario {
	sc := oracleScenario{
		seed: seed,
		cfg: Config{
			RequestLatency:   time.Duration(r.Intn(3)) * time.Millisecond,
			PerConnBandwidth: 1e6,
			ReadOpsPerSec:    1e6,
			WriteOpsPerSec:   1e6,
			OpsBurst:         1e6,
		},
		objSize: int64(1 + r.Intn(60_000)),
		real:    r.Intn(3) == 0,
	}
	switch r.Intn(3) {
	case 0: // the backend is the bottleneck: waterfill shares it
		sc.cfg.AggregateBandwidth = 1e6 * (0.5 + 3*r.Float64())
	case 1: // plenty: every flow runs at its cap
		sc.cfg.AggregateBandwidth = 1e9
	}
	if r.Intn(3) == 0 { // admissions queue behind the read throttle
		sc.cfg.ReadOpsPerSec = 200 + 2000*r.Float64()
		sc.cfg.OpsBurst = float64(1 + r.Intn(8))
	}
	if r.Intn(3) == 0 {
		sc.cfg.FailureRate = 0.3 * r.Float64()
	}
	for at := time.Duration(0); r.Intn(3) == 0 && len(sc.brownouts) < 6; {
		at += time.Duration(1+r.Intn(40)) * time.Millisecond
		open := struct {
			at   time.Duration
			rate float64
		}{at, 0.1 + 0.6*r.Float64()}
		at += time.Duration(1+r.Intn(60)) * time.Millisecond
		sc.brownouts = append(sc.brownouts, open, struct {
			at   time.Duration
			rate float64
		}{at, 0})
	}

	draw := func() oracleReader {
		rd := oracleReader{closeAfter: -1}
		rd.off = r.Int63n(sc.objSize)
		if r.Intn(4) == 0 {
			rd.off = 0
		}
		switch left := sc.objSize - rd.off; r.Intn(4) {
		case 0:
			rd.n = -1 // open-ended
		case 1:
			rd.n = left // to the end; with off 0 the whole object
		default:
			rd.n = r.Int63n(left + 1) // zero length included
		}
		switch r.Intn(4) {
		case 0:
			rd.opts.ChunkBytes = sc.objSize + int64(r.Intn(2)) // one chunk
		case 1:
			rd.opts.ChunkBytes = int64(16 + r.Intn(512)) // many
		default:
			rd.opts.ChunkBytes = int64(1_000 + r.Intn(20_000))
		}
		if r.Intn(3) == 0 {
			rd.flowCap = 1e5 + 2e6*r.Float64() // below and above PerConnBandwidth
		}
		if r.Intn(2) == 0 {
			rd.cpu = time.Duration(r.Intn(30_000)) * time.Microsecond
		}
		return rd
	}
	// How this reader leaves, drawn per reader even when the range is
	// shared.
	leave := func(rd oracleReader) oracleReader {
		switch r.Intn(5) {
		case 0: // before the stream's first event fires
			rd.closeAfter, rd.closeDelay = 0, 0
		case 1, 2: // somewhere in the middle
			rd.closeAfter = r.Intn(6)
			rd.closeDelay = time.Duration(r.Intn(20_000)) * time.Microsecond
		}
		rd.nextAfterClose = r.Intn(2) == 0
		return rd
	}
	n := 1 + r.Intn(maxOracleReaders)
	shared := draw()
	together := r.Intn(4) != 0
	for i := 0; i < n; i++ {
		rd := shared
		if !together {
			rd = draw()
			rd.startAt = time.Duration(r.Intn(50_000)) * time.Microsecond
		}
		if !together || r.Intn(3) == 0 {
			rd = leave(rd)
		}
		sc.readers = append(sc.readers, rd)
	}
	return sc
}

func TestStreamMatchesProducerProcess(t *testing.T) {
	sum := streamOracle.Sweep(t, 200, 40, 21, func(i int, r *rand.Rand) (oracleScenario, time.Duration) {
		return genOracleScenario(r, int64(1000+i)), -1
	})
	c := sum.Counts
	t.Logf("%d scenarios: %d chunk flows, %d instants with two or more deliveries, %d throttles, %d readers closed early",
		sum.Scenarios, c["chunk flows"], c["ties"], c["throttles"], c["closed early"])
	t.Logf("%d handoffs as a state machine, %d as processes", sum.New, sum.Old)
	sum.Reach(t, "ties", "throttles", "closed early")
}

// TestReclaimedStreamMatchesProducerProcess is
// TestStreamMatchesProducerProcess with every reader opening into
// storage the previous scenario's readers finished: a stream opened
// again, its step bound on another simulation, must fire what a fresh
// one fires.
func TestReclaimedStreamMatchesProducerProcess(t *testing.T) {
	form, reach := reclaimedForm()
	reclaimed := destest.Pair[oracleScenario]{New: form, Old: streamOracle.Old}
	sum := reclaimed.Sweep(t, 200, 40, 21, func(i int, r *rand.Rand) (oracleScenario, time.Duration) {
		return genOracleScenario(r, int64(1000+i)), -1
	})
	sum.Reach(t, "ties", "throttles", "closed early")
	if reach.rebound == 0 {
		t.Error("no reader opened into storage an earlier scenario bound")
	}
	if reach.rechunked == 0 {
		t.Error("no reader opened a sized range of full chunks and a tail into storage last opened at another chunk size")
	}
	t.Logf("%d opens into reclaimed storage, %d of them sized ranges of full chunks and a tail at a new chunk size", reach.rebound, reach.rechunked)
}

// rechunked is sc over a byte-less object, each reader's range of 16
// bytes or more cut into two or three full chunks and a tail, at a chunk
// size other than the one sc gave it. Played in the reclaimed form right
// after sc, such a reader opens into storage last opened at another chunk
// size, where a full-chunk payload kept from that open would show.
func rechunked(sc oracleScenario) oracleScenario {
	sc.real = false
	sc.readers = slices.Clone(sc.readers)
	for i := range sc.readers {
		rd := &sc.readers[i]
		n := rd.n
		if n < 0 {
			n = max(sc.objSize-rd.off, 0)
		}
		if n < 16 {
			continue
		}
		chunk := (n - 1) / 2
		if chunk == rd.opts.ChunkBytes {
			chunk = (n - 1) / 3
		}
		rd.opts.ChunkBytes = chunk
	}
	return sc
}

// FuzzStreamMachine draws a scenario from each fuzzed seed and holds the
// state machine to the producer process on it, as
// TestStreamMatchesProducerProcess does on its fixed seeds: once on fresh
// storage, once on the storage the previous input's scenario finished,
// and once more, rechunked, on the storage that play left.
func FuzzStreamMachine(f *testing.F) {
	form, _ := reclaimedForm()
	reclaimed := destest.Pair[oracleScenario]{New: form, Old: streamOracle.Old}
	for _, seed := range []int64{1, 21, 1000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := genOracleScenario(rand.New(rand.NewSource(seed)), seed)
		streamOracle.Check(t, "fuzzed scenario", sc, -1)
		reclaimed.Check(t, "fuzzed scenario on reclaimed storage", sc, -1)
		reclaimed.Check(t, "fuzzed scenario rechunked, on the storage it left", rechunked(sc), -1)
	})
}
