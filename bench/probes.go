package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/gateway"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/methcomp"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/session"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// Probes drive one layer's exported functions on a fresh simulation and
// time them. They are the per-layer numbers no counter can give: the
// host cost of a single operation of that layer with nothing else in
// the way. They run once per traced run, after the reps, and do not
// depend on the workload; a probe that fails reports nothing and is
// listed in the run's failures.

// prober collects probe results.
type prober struct {
	sp       *spinner
	values   map[string]float64
	failures []string
}

const probeTries = 3

// perOp runs fn probeTries times and reports the median host
// nanoseconds per operation. fn returns how many operations it did and
// how long the timed part took (set-up inside fn is excluded by fn).
func (p *prober) perOp(name string, fn func() (ops int, took time.Duration, err error)) {
	p.perOpAs(name, func(ns float64) float64 { return ns }, fn)
}

// perOpAs is perOp for a metric that is not in nanoseconds: unit turns
// the median ns per operation into the reported value.
func (p *prober) perOpAs(name string, unit func(ns float64) float64, fn func() (ops int, took time.Duration, err error)) {
	var ns []float64
	for i := 0; i < probeTries; i++ {
		ops, took, err := fn()
		if err != nil || ops == 0 {
			p.failures = append(p.failures, fmt.Sprintf("probe %s: %v", name, err))
			return
		}
		ns = append(ns, float64(took.Nanoseconds())/float64(ops))
	}
	p.values[name] = unit(median(ns))
}

func nsToMs(ns float64) float64 { return ns / 1e6 }
func nsToUs(ns float64) float64 { return ns / 1e3 }

// perSecond turns ns per pass over amount units of work into units/s.
func perSecond(amount float64) func(ns float64) float64 {
	return func(ns float64) float64 { return amount / (ns / 1e9) }
}

// simulate runs body as the only top-level process of a fresh
// simulation and returns the host time of the whole run.
func simulate(body func(p *des.Proc) error) (time.Duration, error) {
	sim := des.New(1)
	return runOn(sim, body)
}

func runOn(sim *des.Sim, body func(p *des.Proc) error) (time.Duration, error) {
	var bodyErr error
	sim.Spawn("probe", func(p *des.Proc) { bodyErr = body(p) })
	start := time.Now()
	err := sim.Run()
	took := time.Since(start)
	if err == nil {
		err = bodyErr
	}
	return took, err
}

func runProbes(sp *spinner) *prober {
	p := &prober{sp: sp, values: map[string]float64{}}
	p.desProbes()
	p.storeProbes()
	p.faasProbes()
	p.cacheAndVMProbes()
	p.shuffleProbes()
	p.planProbe()
	p.dataPlaneProbes()
	p.controlPlaneProbes()
	return p
}

func (p *prober) desProbes() {
	// 1024 pending self-rescheduling timers at staggered periods: one
	// fired and one scheduled per step, with real heap churn.
	p.perOp("des.schedule_fire_ns", func() (int, time.Duration, error) {
		const depth, n = 1024, 300000
		sim := des.New(1)
		fired := 0
		for i := 0; i < depth; i++ {
			period := time.Duration(i%97+1) * time.Microsecond
			var fn func()
			fn = func() {
				fired++
				if fired < n {
					sim.After(period, fn)
				}
			}
			sim.After(period, fn)
		}
		start := time.Now()
		err := sim.Run()
		return fired, time.Since(start), err
	})
	// Timeouts armed and disarmed without firing: the token-bucket and
	// link pattern.
	p.perOp("des.cancel_ns", func() (int, time.Duration, error) {
		const n = 300000
		sim := des.New(1)
		start := time.Now()
		for i := 0; i < n; i++ {
			sim.Schedule(time.Hour+time.Duration(i), func() {}).Cancel()
		}
		took := time.Since(start)
		return n, took, sim.Run()
	})
	// A ring of parked processes each waking the next: the shape of
	// every Resource, stream and WaitGroup interaction.
	p.perOp("des.park_wake_ns", func() (int, time.Duration, error) {
		const procs, n = 256, 100000
		sim := des.New(1)
		woken := 0
		ring := make([]*des.Proc, procs)
		for i := 0; i < procs; i++ {
			i := i
			ring[i] = sim.Spawn(fmt.Sprintf("p%d", i), func(pr *des.Proc) {
				for woken < n {
					woken++
					ring[(i+1)%procs].Wake()
					if woken >= n {
						for _, q := range ring {
							q.Wake()
						}
						return
					}
					pr.Park()
				}
			})
		}
		start := time.Now()
		err := sim.Run()
		return woken, time.Since(start), err
	})
	p.perOp("des.spawn_ns", func() (int, time.Duration, error) {
		const n = 50000
		took, err := simulate(func(pr *des.Proc) error {
			wg := des.NewWaitGroup(pr.Sim())
			for i := 0; i < n; i++ {
				wg.Add(1)
				pr.Spawn("child", func(*des.Proc) { wg.Done() })
			}
			wg.Wait(pr)
			return nil
		})
		return n, took, err
	})
	for _, flows := range []int{8, 256} {
		flows := flows
		p.perOp(fmt.Sprintf("des.link_transfer_ns_f%d", flows), func() (int, time.Duration, error) {
			const total = 20480
			per := total / flows
			took, err := simulate(func(pr *des.Proc) error {
				link := des.NewLink(pr.Sim(), 10e9)
				wg := des.NewWaitGroup(pr.Sim())
				for f := 0; f < flows; f++ {
					f := f
					wg.Add(1)
					pr.Spawn("flow", func(fp *des.Proc) {
						defer wg.Done()
						for k := 0; k < per; k++ {
							// Unequal sizes so completions interleave and
							// every one reshares the link.
							link.Transfer(fp, int64(1<<20+((f*31+k*17)%64)<<14), 95e6)
						}
					})
				}
				wg.Wait(pr)
				return nil
			})
			return flows * per, took, err
		})
	}
}

// paperStore builds a store with the paper profile on a fresh
// simulation.
func paperStore() (*des.Sim, *objectstore.Service, error) {
	sim := des.New(1)
	svc, err := objectstore.New(sim, calib.Paper().Store)
	return sim, svc, err
}

func (p *prober) storeProbes() {
	p.perOp("objectstore.put_get_ns", func() (int, time.Duration, error) {
		const n = 3000
		sim, svc, err := paperStore()
		if err != nil {
			return 0, 0, err
		}
		took, err := runOn(sim, func(pr *des.Proc) error {
			c := objectstore.NewClient(svc)
			if err := c.CreateBucket(pr, "b"); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k%d", i)
				if err := c.Put(pr, "b", key, payload.Sized(1024)); err != nil {
					return err
				}
				if _, err := c.Get(pr, "b", key); err != nil {
					return err
				}
			}
			return nil
		})
		return n, took, err
	})
	const streamBytes, streamChunk = int64(4 << 30), int64(4 << 20)
	p.perOp("objectstore.get_stream_chunk_ns", func() (int, time.Duration, error) {
		sim, svc, err := paperStore()
		if err != nil {
			return 0, 0, err
		}
		chunks := 0
		took, err := runOn(sim, func(pr *des.Proc) error {
			c := objectstore.NewClient(svc)
			if err := c.CreateBucket(pr, "b"); err != nil {
				return err
			}
			if err := c.Put(pr, "b", "big", payload.Sized(streamBytes)); err != nil {
				return err
			}
			st, err := c.GetStream(pr, "b", "big", 0, -1, objectstore.StreamOptions{ChunkBytes: streamChunk})
			if err != nil {
				return err
			}
			defer st.Close()
			for got := int64(0); got < streamBytes; chunks++ {
				pl, err := st.Next(pr)
				if err != nil {
					return err
				}
				got += pl.Size()
			}
			return nil
		})
		return chunks, took, err
	})
	p.perOp("objectstore.put_stream_part_ns", func() (int, time.Duration, error) {
		sim, svc, err := paperStore()
		if err != nil {
			return 0, 0, err
		}
		parts := int(streamBytes / streamChunk)
		took, err := runOn(sim, func(pr *des.Proc) error {
			c := objectstore.NewClient(svc)
			if err := c.CreateBucket(pr, "b"); err != nil {
				return err
			}
			w := c.PutStream(pr, "b", "big", objectstore.PutStreamOptions{PartBytes: streamChunk})
			for i := 0; i < parts; i++ {
				if err := w.Write(pr, payload.Sized(streamChunk)); err != nil {
					return err
				}
			}
			return w.Close(pr)
		})
		return parts, took, err
	})
	// 64 clients hammering zero-byte PUTs: the achieved aggregate rate is
	// the store's ops throttle seen from outside, and the retries are
	// what it cost the clients.
	const clients, perClient = 64, 100
	sim, svc, err := paperStore()
	if err != nil {
		p.failures = append(p.failures, fmt.Sprintf("probe objectstore.ops_per_virtual_s: %v", err))
		return
	}
	var retries int64
	_, err = runOn(sim, func(pr *des.Proc) error {
		if err := objectstore.NewClient(svc).CreateBucket(pr, "b"); err != nil {
			return err
		}
		wg := des.NewWaitGroup(sim)
		var firstErr error
		for i := 0; i < clients; i++ {
			i := i
			wg.Add(1)
			pr.Spawn("client", func(cp *des.Proc) {
				defer wg.Done()
				c := objectstore.NewClient(svc)
				for k := 0; k < perClient; k++ {
					if err := c.Put(cp, "b", fmt.Sprintf("c%d/k%d", i, k), payload.Sized(0)); err != nil && firstErr == nil {
						firstErr = err
					}
				}
				retries += c.Retries()
			})
		}
		wg.Wait(pr)
		return firstErr
	})
	if err != nil {
		p.failures = append(p.failures, fmt.Sprintf("probe objectstore.ops_per_virtual_s: %v", err))
		return
	}
	p.values["objectstore.ops_per_virtual_s"] = clients * perClient / sim.Now().Seconds()
	p.values["objectstore.client_retries"] = float64(retries)
}

func (p *prober) faasProbes() {
	noop := func(*faas.Ctx, any) (any, error) { return nil, nil }
	platform := func() (*des.Sim, *faas.Platform, error) {
		sim, svc, err := paperStore()
		if err != nil {
			return nil, nil, err
		}
		pf, err := faas.New(sim, svc, calib.Paper().Faas)
		if err != nil {
			return nil, nil, err
		}
		return sim, pf, pf.Register("noop", noop)
	}
	p.perOp("faas.invoke_ns", func() (int, time.Duration, error) {
		const n = 3000
		sim, pf, err := platform()
		if err != nil {
			return 0, 0, err
		}
		took, err := runOn(sim, func(pr *des.Proc) error {
			for i := 0; i < n; i++ {
				if _, err := pf.Invoke(pr, "noop", nil, faas.InvokeOptions{}); err != nil {
					return err
				}
			}
			return nil
		})
		return n, took, err
	})
	p.perOp("faas.map_sync_ns_per_task", func() (int, time.Duration, error) {
		const tasks, waves = 500, 4
		sim, pf, err := platform()
		if err != nil {
			return 0, 0, err
		}
		inputs := make([]any, tasks)
		took, err := runOn(sim, func(pr *des.Proc) error {
			for w := 0; w < waves; w++ {
				if _, err := pf.MapSync(pr, "noop", inputs, faas.InvokeOptions{}); err != nil {
					return err
				}
			}
			return nil
		})
		return tasks * waves, took, err
	})
}

func (p *prober) cacheAndVMProbes() {
	cluster := func(pr *des.Proc) (*memcache.Cluster, error) {
		prov, err := memcache.NewProvisioner(pr.Sim(), calib.Paper().Cache)
		if err != nil {
			return nil, err
		}
		return prov.ProvisionWarm(pr, 2)
	}
	p.perOp("memcache.set_get_ns", func() (int, time.Duration, error) {
		const n = 5000
		took, err := simulate(func(pr *des.Proc) error {
			c, err := cluster(pr)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k%d", i)
				if err := c.Set(pr, key, payload.Sized(1024)); err != nil {
					return err
				}
				if _, err := c.Get(pr, key); err != nil {
					return err
				}
			}
			return nil
		})
		return n, took, err
	})
	p.perOp("memcache.mget_ns_per_key", func() (int, time.Duration, error) {
		const keys, rounds = 64, 300
		took, err := simulate(func(pr *des.Proc) error {
			c, err := cluster(pr)
			if err != nil {
				return err
			}
			names := make([]string, keys)
			for i := range names {
				names[i] = fmt.Sprintf("k%d", i)
				if err := c.Set(pr, names[i], payload.Sized(1024)); err != nil {
					return err
				}
			}
			for r := 0; r < rounds; r++ {
				if _, err := c.MGet(pr, names); err != nil {
					return err
				}
			}
			return nil
		})
		return keys * rounds, took, err
	})
	p.perOp("vm.run_parallel_ns", func() (int, time.Duration, error) {
		const tasks, rounds = 64, 150
		rig, err := calib.NewRig(calib.Paper())
		if err != nil {
			return 0, 0, err
		}
		took, err := runOn(rig.Sim, func(pr *des.Proc) error {
			inst, err := rig.Prov.Provision(pr, rig.Profile.InstanceType)
			if err != nil {
				return err
			}
			defer inst.Stop()
			for r := 0; r < rounds; r++ {
				if err := inst.RunParallel(pr, tasks, time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		})
		return tasks * rounds, took, err
	})
}

// shuffleProbe stages input on a fresh rig and runs one sort variant,
// returning its host time in spins, its host seconds and its simulated
// seconds.
func (p *prober) shuffleProbe(profile calib.Profile, input payload.Payload, variant string, workers int) (norm, hostS, virtualS float64, err error) {
	rig, err := calib.NewRig(profile)
	if err != nil {
		return 0, 0, 0, err
	}
	spec := shuffle.Spec{
		InputBucket: "data", InputKey: "in",
		OutputBucket: "work", OutputPrefix: "sorted/",
		Workers:      workers,
		PartitionBps: profile.PartitionBps,
		MergeBps:     profile.MergeBps,
		MemoryMB:     profile.Faas.MemoryMB,
	}
	var virtual time.Duration
	before := p.sp.spin()
	took, err := runOn(rig.Sim, func(pr *des.Proc) error {
		c := objectstore.NewClient(rig.Store)
		for _, b := range []string{"data", "work"} {
			if err := c.CreateBucket(pr, b); err != nil {
				return err
			}
		}
		if err := c.Put(pr, "data", "in", input); err != nil {
			return err
		}
		start := pr.Now()
		var err error
		switch variant {
		case "sort":
			_, err = rig.Shuffle.Sort(pr, spec)
		case "hier":
			_, err = rig.Shuffle.SortHierarchical(pr, shuffle.HierSpec{Spec: spec})
		case "cache":
			_, err = rig.CacheOp.Sort(pr, shuffle.CacheSpec{Spec: spec, Warm: true})
		}
		virtual = pr.Now() - start
		return err
	})
	after := p.sp.spin()
	return normalise(took, before, after), took.Seconds(), virtual.Seconds(), err
}

func (p *prober) shuffleProbes() {
	sized := []struct {
		name, variant string
		workers       int
	}{
		{"shuffle.sort_sized_w8", "sort", 8},
		{"shuffle.sort_sized_w128", "sort", 128},
		{"shuffle.hier_sort_sized_w128", "hier", 128},
		{"shuffle.cache_sort_sized_w8", "cache", 8},
	}
	for _, s := range sized {
		norm, _, virtual, err := p.shuffleProbe(calib.Paper(), payload.Sized(paperDataBytes), s.variant, s.workers)
		if err != nil {
			p.failures = append(p.failures, fmt.Sprintf("probe %s: %v", s.name, err))
			continue
		}
		p.values[s.name+"_norm"] = norm
		p.values[s.name+"_virtual_s"] = virtual
	}
	raw := bed.Marshal(bed.Generate(bed.GenConfig{Records: 100000, Seed: 11, Sorted: false}))
	for _, r := range []struct{ name, variant string }{
		{"shuffle.sort_real_mb_per_s", "sort"},
		{"shuffle.hier_sort_real_mb_per_s", "hier"},
		{"shuffle.cache_sort_real_mb_per_s", "cache"},
	} {
		_, hostS, _, err := p.shuffleProbe(calib.Local(), payload.RealNoCopy(raw), r.variant, 8)
		if err != nil {
			p.failures = append(p.failures, fmt.Sprintf("probe %s: %v", r.name, err))
			continue
		}
		p.values[r.name] = float64(len(raw)) / 1e6 / hostS
	}
}

func (p *prober) planProbe() {
	profile := calib.Paper()
	var candidates int
	p.perOpAs("autoplan.plan_ms", nsToMs, func() (int, time.Duration, error) {
		start := time.Now()
		dec, err := autoplan.Plan(calib.PlanWorkload(profile, paperDataBytes), calib.PlanEnv(profile), autoplan.Objective{})
		candidates = len(dec.Candidates)
		return 1, time.Since(start), err
	})
	p.values["autoplan.candidates"] = float64(candidates)
}

func (p *prober) dataPlaneProbes() {
	const records = 200000
	recs := bed.Generate(bed.GenConfig{Records: records, Seed: 11, Sorted: false})
	raw := bed.Marshal(recs)
	mb := float64(len(raw)) / 1e6
	mbPerS := func(name string, fn func() error) {
		p.perOpAs(name, perSecond(mb), func() (int, time.Duration, error) {
			start := time.Now()
			err := fn()
			return 1, time.Since(start), err
		})
	}
	mbPerS("bed.unmarshal_mb_per_s", func() error {
		_, err := bed.Unmarshal(raw)
		return err
	})
	mbPerS("bed.marshal_mb_per_s", func() error {
		bed.Marshal(recs)
		return nil
	})
	p.perOpAs("bed.sort_mrec_per_s", perSecond(records/1e6), func() (int, time.Duration, error) {
		scratch := append([]bed.Record(nil), recs...)
		start := time.Now()
		bed.Sort(scratch)
		return 1, time.Since(start), nil
	})
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte{'\n'})
	p.perOp("bed.key_of_line_ns", func() (int, time.Duration, error) {
		start := time.Now()
		for _, line := range lines {
			if _, err := bed.KeyOfLine(line); err != nil {
				return 0, 0, err
			}
		}
		return len(lines), time.Since(start), nil
	})
	bed.Sort(recs)
	var compressed []byte
	mbPerS("methcomp.compress_mb_per_s", func() error {
		var err error
		compressed, err = methcomp.Compress(recs)
		return err
	})
	mbPerS("methcomp.decompress_mb_per_s", func() error {
		_, err := methcomp.Decompress(compressed)
		return err
	})
	if len(compressed) > 0 {
		p.values["methcomp.ratio"] = float64(len(raw)) / float64(len(compressed))
	}
}

func (p *prober) controlPlaneProbes() {
	noopJob := func() session.Job {
		wf := core.NewWorkflow("noop")
		_ = wf.Add(&core.FuncStage{StageName: "work", Fn: func(*core.StageContext) error { return nil }}) // a fresh workflow accepts its first stage
		return session.WorkflowJob(wf, nil)
	}
	// One no-op stage through session.Submit: what the executor, the
	// session and a one-process simulation run cost per job.
	p.perOpAs("core.run_overhead_us", nsToUs, func() (int, time.Duration, error) {
		const n = 2000
		sess, err := session.Open(calib.Paper(), session.Options{})
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := sess.Submit(noopJob()); err != nil {
				return 0, 0, err
			}
		}
		took := time.Since(start)
		_, err = sess.Close()
		return n, took, err
	})

	auth := gateway.HMACAuth{Secret: []byte("probe")}
	const tenants = 1000
	creds := make([]gateway.Credential, tenants)
	for i := range creds {
		id := fmt.Sprintf("t%04d", i)
		creds[i] = gateway.Credential{TenantID: id, MAC: auth.Tag(id)}
	}
	p.perOp("gateway.auth_ns", func() (int, time.Duration, error) {
		const n = 20000
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := auth.Authenticate(creds[i%tenants]); err != nil {
				return 0, 0, err
			}
		}
		return n, time.Since(start), nil
	})
	// The admission path alone: every submission arrives at the same
	// instant, so all but the first MaxConcurrent queue and Submit's
	// cost is auth + admission + one dispatch scan. The drain that
	// follows is not timed.
	p.perOp("gateway.submit_ns", func() (int, time.Duration, error) {
		const n = 20000
		sess, err := session.Open(calib.Paper(), session.Options{})
		if err != nil {
			return 0, 0, err
		}
		g := gateway.New(sess, auth, gateway.Options{MaxConcurrent: 64})
		for _, c := range creds {
			if err := g.RegisterTenant(c.TenantID, gateway.TenantConfig{}); err != nil {
				return 0, 0, err
			}
		}
		var took time.Duration
		if _, err := runOn(sess.Rig().Sim, func(pr *des.Proc) error {
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := g.Submit(pr, creds[i%tenants], noopJob()); err != nil {
					return err
				}
			}
			took = time.Since(start)
			g.Drain(pr)
			return nil
		}); err != nil {
			return 0, 0, err
		}
		_, err = g.Close()
		return n, took, err
	})
}
