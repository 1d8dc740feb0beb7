// Package faas simulates a Functions-as-a-Service platform in the
// mold of IBM Cloud Functions / AWS Lambda: short cold starts, warm
// container reuse, memory-proportional CPU shares, a platform
// concurrency limit, and GB-second metering.
//
// Functions cannot talk to each other directly — exactly the
// constraint the paper is about — so every handler exchanges data
// through the object store client in its invocation context.
package faas

import (
	"errors"
	"fmt"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/lists"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

var (
	// ErrUnknownFunction is returned when invoking an unregistered name.
	ErrUnknownFunction = errors.New("faas: unknown function")
	// ErrAlreadyRegistered is returned on duplicate registration.
	ErrAlreadyRegistered = errors.New("faas: function already registered")
	// ErrInvocationFailed is the transient platform-side failure
	// injected by Config.FailureRate (crashed container, evicted host).
	ErrInvocationFailed = errors.New("faas: invocation failed")
)

// Config describes the platform's performance and billing profile.
type Config struct {
	// ColdStart is the median container cold-start latency.
	ColdStart time.Duration
	// ColdStartJitter spreads cold starts uniformly in
	// [ColdStart-Jitter, ColdStart+Jitter].
	ColdStartJitter time.Duration
	// WarmStart is the latency of reusing a kept-alive container.
	WarmStart time.Duration
	// KeepAlive is how long an idle container stays warm.
	KeepAlive time.Duration
	// MemoryMB is the default memory grant per invocation.
	MemoryMB int
	// BaselineMemoryMB is the grant at which CPU speed factor is 1.0;
	// CPU scales linearly with memory like Lambda.
	BaselineMemoryMB int
	// ConcurrencyLimit bounds simultaneous executions platform-wide.
	ConcurrencyLimit int
	// BillingGranularity rounds billed durations up (e.g. 100ms).
	BillingGranularity time.Duration
	// FailureRate injects a transient platform failure on each
	// invocation attempt with this probability (0..1): the container
	// crashes right after start and the attempt returns
	// ErrInvocationFailed. Callers retry via InvokeOptions.MaxRetries.
	FailureRate float64
	// StragglerRate marks invocations as stragglers with this
	// probability (0..1): their CPU runs StragglerSlowdown times slower,
	// modeling contended or degraded hosts — the long tail that
	// speculative execution targets.
	StragglerRate float64
	// StragglerSlowdown is the straggler CPU slowdown factor
	// (default 3; see Slowdown).
	StragglerSlowdown float64
}

// Slowdown is the factor a straggler's CPU runs slower by: what the
// platform draws and the planner prices.
func (c Config) Slowdown() float64 {
	if c.StragglerSlowdown < 1 {
		return 3
	}
	return c.StragglerSlowdown
}

// DefaultConfig resembles a public FaaS region with 2 GB functions,
// matching the paper's setup.
func DefaultConfig() Config {
	return Config{
		ColdStart:          650 * time.Millisecond,
		ColdStartJitter:    250 * time.Millisecond,
		WarmStart:          25 * time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   1000,
		BillingGranularity: 100 * time.Millisecond,
	}
}

func (c Config) validate() error {
	if c.ColdStart < 0 || c.WarmStart < 0 {
		return errors.New("faas: negative start latency")
	}
	if c.ColdStartJitter < 0 || c.ColdStartJitter > c.ColdStart {
		return fmt.Errorf("faas: jitter %v out of [0, ColdStart]", c.ColdStartJitter)
	}
	if c.MemoryMB <= 0 || c.BaselineMemoryMB <= 0 {
		return errors.New("faas: memory grants must be positive")
	}
	if c.ConcurrencyLimit <= 0 {
		return errors.New("faas: ConcurrencyLimit must be positive")
	}
	if c.BillingGranularity <= 0 {
		return errors.New("faas: BillingGranularity must be positive")
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return fmt.Errorf("faas: FailureRate %g out of [0,1)", c.FailureRate)
	}
	if c.StragglerRate < 0 || c.StragglerRate >= 1 {
		return fmt.Errorf("faas: StragglerRate %g out of [0,1)", c.StragglerRate)
	}
	if c.StragglerSlowdown < 0 || (c.StragglerSlowdown > 0 && c.StragglerSlowdown < 1) {
		return fmt.Errorf("faas: StragglerSlowdown %g must be >= 1", c.StragglerSlowdown)
	}
	return nil
}

// Handler is a function body. Input and output are opaque to the
// platform; handlers exchange bulk data through ctx.Store.
type Handler func(ctx *Ctx, input any) (any, error)

// Ctx is the per-invocation context a handler runs with.
type Ctx struct {
	// Proc is the invocation's simulated process; handlers pass it to
	// every blocking call.
	Proc *des.Proc
	// Store is this invocation's object storage client.
	Store *objectstore.Client
	// MemoryMB is the invocation's memory grant.
	MemoryMB int
	// InvocationID identifies the activation.
	InvocationID int64

	speed float64
}

// ComputeBytes consumes the CPU time to process n bytes at a baseline
// throughput of bps bytes/second, scaled by the invocation's CPU share.
func (c *Ctx) ComputeBytes(n int64, bps float64) {
	if d, ok := c.CPUTime(n, bps); ok {
		c.Proc.Sleep(d)
	}
}

// CPUTime is what ComputeBytes sleeps, and whether it sleeps at all.
func (c *Ctx) CPUTime(n int64, bps float64) (time.Duration, bool) {
	if n <= 0 || bps <= 0 {
		return 0, false
	}
	d := time.Duration(float64(n) / bps * float64(time.Second))
	return time.Duration(float64(d) / c.speed), d > 0
}

// Activation records one completed invocation attempt, for tracing
// and tests.
type Activation struct {
	ID        int64
	Function  string
	Start     time.Duration
	End       time.Duration
	Cold      bool
	Straggler bool
	MemoryMB  int
	BilledGB  float64 // GB-seconds billed
	Err       error
}

// Platform is a simulated FaaS region.
type Platform struct {
	sim      *des.Sim
	cfg      Config
	store    *objectstore.Service
	registry map[string]function
	sem      *des.Resource
	warm     map[string][]time.Duration // idle container expiry times
	meter    des.Ledger[Meter]
	invSeq   int64
	log      lists.Chunked[Activation] // every attempt, in whole chunks
}

// function is a registered handler and the prefix of its invocations'
// process names, "faas/<name>#", built once at Register.
type function struct {
	h      Handler
	prefix string
}

// New builds a platform on sim backed by store.
func New(sim *des.Sim, store *objectstore.Service, cfg Config) (*Platform, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Platform{
		sim:      sim,
		cfg:      cfg,
		store:    store,
		registry: make(map[string]function),
		sem:      des.NewResource(sim, int64(cfg.ConcurrencyLimit)),
		warm:     make(map[string][]time.Duration),
		log:      lists.Chunked[Activation]{Chunk: 32, First: 32},
	}, nil
}

// Config returns the platform profile.
func (pf *Platform) Config() Config { return pf.cfg }

// Meter returns a snapshot of the billing counters.
func (pf *Platform) Meter() Meter { return pf.meter.Total }

// Ledger returns the billing counters, per scope as well as in total.
func (pf *Platform) Ledger() *des.Ledger[Meter] { return &pf.meter }

// Activations returns the recorded activation log.
func (pf *Platform) Activations() []Activation { return pf.log.Flatten() }

// Register adds a named function.
func (pf *Platform) Register(name string, h Handler) error {
	if _, ok := pf.registry[name]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyRegistered, name)
	}
	if h == nil {
		return fmt.Errorf("faas: nil handler for %s", name)
	}
	pf.registry[name] = function{h: h, prefix: "faas/" + name + "#"}
	return nil
}

// InvokeOptions tune a single invocation.
type InvokeOptions struct {
	// MemoryMB overrides the platform default grant when > 0.
	MemoryMB int
	// MaxRetries re-attempts invocations that fail with
	// ErrInvocationFailed up to this many extra times. Handler errors
	// are not retried: the platform cannot tell a deterministic bug
	// from a transient one, so only platform-side failures qualify. The
	// first retry waits retryBackoff, doubled per attempt.
	MaxRetries int
}

// retryBackoff is the delay before an invocation's first retry.
const retryBackoff = 50 * time.Millisecond

// InvokeAsync starts an invocation for p and returns a future for its
// result. The caller keeps running; invocations execute as their own
// processes, in p's scope, subject to the platform concurrency limit.
func (pf *Platform) InvokeAsync(p *des.Proc, name string, input any, opts InvokeOptions) *Future {
	f, ok := pf.registry[name]
	if !ok { // nothing to run: a record with no holds, never put back
		return &Future{done: true, err: fmt.Errorf("%w: %s", ErrUnknownFunction, name)}
	}
	fut := futures.Take(1)
	pf.invSeq++
	fut.pf, fut.h, fut.name, fut.input, fut.id = pf, f.h, name, input, pf.invSeq
	fut.mem, fut.retries, fut.holds = pf.cfg.MemoryMB, opts.MaxRetries, 2
	if opts.MemoryMB > 0 {
		fut.mem = opts.MemoryMB
	}
	if fut.runFn == nil {
		fut.runFn = fut.run
	}
	p.SpawnNumbered(f.prefix, fut.id, fut.runFn)
	return fut
}

// attempt runs one invocation attempt to completion: container
// acquisition, start latency, failure and straggler draws, handler
// execution, metering.
func (pf *Platform) attempt(p *des.Proc, h Handler, name string, input any, mem int, id int64) (any, error) {
	pf.sem.Acquire(p, 1)
	defer pf.sem.Release(1)

	cold := !pf.takeWarm(name)
	var startLat time.Duration
	if cold {
		jitter := time.Duration(0)
		if pf.cfg.ColdStartJitter > 0 {
			jitter = time.Duration((p.Rand().Float64()*2 - 1) * float64(pf.cfg.ColdStartJitter))
		}
		startLat = pf.cfg.ColdStart + jitter
		pf.meter.Charge(p, func(m *Meter) { m.ColdStarts++ })
	} else {
		startLat = pf.cfg.WarmStart
		pf.meter.Charge(p, func(m *Meter) { m.WarmStarts++ })
	}
	p.Sleep(startLat)

	// Transient platform failure: the container crashed after start.
	// The attempt is billed one granularity unit (the platform ran
	// something) and the warm slot is lost with the container.
	if pf.cfg.FailureRate > 0 && p.Rand().Float64() < pf.cfg.FailureRate {
		gbs := pf.cfg.BillingGranularity.Seconds() * float64(mem) / 1024
		pf.meter.Charge(p, func(m *Meter) {
			m.Invocations++
			m.FailedAttempts++
			m.GBSeconds += gbs
		})
		pf.log.Add(Activation{
			ID:       id,
			Function: name,
			Start:    p.Now(),
			End:      p.Now(),
			Cold:     cold,
			MemoryMB: mem,
			BilledGB: gbs,
			Err:      ErrInvocationFailed,
		})
		return nil, ErrInvocationFailed
	}

	speed := float64(mem) / float64(pf.cfg.BaselineMemoryMB)
	straggler := pf.cfg.StragglerRate > 0 && p.Rand().Float64() < pf.cfg.StragglerRate
	if straggler {
		speed /= pf.cfg.Slowdown()
		pf.meter.Charge(p, func(m *Meter) { m.Stragglers++ })
	}

	ctx := &Ctx{
		Proc:         p,
		Store:        objectstore.NewClient(pf.store),
		MemoryMB:     mem,
		InvocationID: id,
		speed:        speed,
	}
	begin := p.Now()
	out, err := h(ctx, input)
	end := p.Now()

	billed := end - begin
	if rem := billed % pf.cfg.BillingGranularity; rem != 0 || billed == 0 {
		billed += pf.cfg.BillingGranularity - rem
	}
	gbs := billed.Seconds() * float64(mem) / 1024
	pf.meter.Charge(p, func(m *Meter) {
		m.Invocations++
		m.GBSeconds += gbs
		m.ExecTime += end - begin
	})
	pf.log.Add(Activation{
		ID:        id,
		Function:  name,
		Start:     begin,
		End:       end,
		Cold:      cold,
		Straggler: straggler,
		MemoryMB:  mem,
		BilledGB:  gbs,
		Err:       err,
	})
	pf.putWarm(name, p.Now()+pf.cfg.KeepAlive)
	return out, err
}

// Invoke runs a function and blocks the calling process for its
// result.
func (pf *Platform) Invoke(p *des.Proc, name string, input any, opts InvokeOptions) (any, error) {
	f := pf.InvokeAsync(p, name, input, opts)
	out, err := f.Wait(p)
	f.release()
	return out, err
}

// MapSync invokes name once per input concurrently and waits for all
// results, returned in input order. The first error (by input order)
// is returned alongside the partial results.
func (pf *Platform) MapSync(p *des.Proc, name string, inputs []any, opts InvokeOptions) ([]any, error) {
	futs := make([]*Future, len(inputs))
	for i, in := range inputs {
		futs[i] = pf.InvokeAsync(p, name, in, opts)
	}
	outs := make([]any, len(inputs))
	var firstErr error
	for i, f := range futs {
		out, err := f.Wait(p)
		f.release()
		outs[i] = out
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("faas: input %d: %w", i, err)
		}
	}
	return outs, firstErr
}

// takeWarm pops an unexpired warm container for name, reporting
// whether one was found. Expired slots are discarded.
func (pf *Platform) takeWarm(name string) bool {
	now := pf.sim.Now()
	slots := pf.warm[name]
	live := slots[:0]
	for _, exp := range slots {
		if exp >= now {
			live = append(live, exp)
		}
	}
	if len(live) == 0 {
		pf.warm[name] = live
		return false
	}
	pf.warm[name] = live[:len(live)-1]
	return true
}

func (pf *Platform) putWarm(name string, expiry time.Duration) {
	pf.warm[name] = append(pf.warm[name], expiry)
}
