package experiments

import (
	"ditto/internal/app"
	"ditto/internal/app/dittofs"
	"ditto/internal/core"
	"ditto/internal/dtrace"
	"ditto/internal/kernel"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/stats"
	"ditto/internal/synth"
)

// SNMix is the paper-style request mix for the Social Network workload.
func SNMix() []loadgen.MixEntry {
	return []loadgen.MixEntry{
		{Kind: app.KindComposePost, Weight: 0.1, ReqBytes: 512},
		{Kind: app.KindReadHomeTimeline, Weight: 0.6, ReqBytes: 128},
		{Kind: app.KindReadUserTimeline, Weight: 0.3, ReqBytes: 128},
	}
}

// Deployment is a deployed service — a single-tier app, the Social Network
// or DittoFS, original or synthetic — with its client machine. Machines
// lists the server-side machines in placement order, frontend first, so
// storage-side counters aggregate over exactly the machines that serve
// requests.
type Deployment struct {
	Env      *Env
	Machines []*platform.Machine
	Frontend *platform.Machine
	Port     int
	// Tiers maps logical (original) tier names to the deployed tiers — the
	// synthetic deployment is keyed by the original name it stands in for,
	// so one fault scenario addresses both deployments identically.
	Tiers     map[string]*app.Tier
	Order     []string
	Collector *dtrace.Collector
	client    string  // load generator process name
	app       app.App // the single-tier app; nil for a multi-tier service
}

// deployApp wraps a started single-tier app.
func deployApp(env *Env, a app.App) *Deployment {
	return &Deployment{Env: env, Machines: []*platform.Machine{a.Machine()}, Frontend: a.Machine(),
		Port: a.Port(), Order: []string{a.Name()}, client: "lg", app: a}
}

// TierProc returns the process of the named tier, or nil.
func (d *Deployment) TierProc(name string) *kernel.Proc {
	if d.app != nil && d.app.Name() == name {
		return d.app.Proc()
	}
	if t := d.Tiers[name]; t != nil {
		return t.Proc()
	}
	return nil
}

// SetResilience installs one RPC resilience policy on every tier.
func (d *Deployment) SetResilience(r *app.Resilience) {
	for _, t := range d.Tiers {
		t.Cfg.Resilience = r
	}
}

// startClient starts the deployment's load generator against its frontend.
func (d *Deployment) startClient(load Load) *loadgen.Generator {
	g := loadgen.New(loadgen.Config{
		Name: d.client, Machine: d.Env.Client, Target: d.Frontend.Kernel,
		Port: d.Port, Conns: load.Conns, QPS: load.QPS, Mix: load.Mix, Seed: load.Seed,
	})
	g.Start()
	return g
}

// newNodes builds an environment (see NewEnvW) whose server side is n
// machines of spec: the environment's server plus n-1 added machines named
// name(i).
func newNodes(intra int, spec platform.Spec, n int, name func(i int) string, opts ...platform.Option) (*Env, []*platform.Machine) {
	env := NewEnvW(intra, spec, opts...)
	machines := []*platform.Machine{env.Server}
	for i := 1; i < n; i++ {
		machines = append(machines, env.AddMachine(name(i), spec, opts...))
	}
	return env, machines
}

// nodeName names the i-th added machine of a Social Network deployment.
func nodeName(prefix string) func(int) string {
	return func(i int) string { return prefix + string(rune('0'+i)) }
}

// NewOriginalSN deploys the original Social Network over nodes machines of
// the given spec (round-robin placement, one replica per tier). intra sets
// the environment's intra-cell parallelism (see NewEnvW); pass 0 for the
// classic single-queue engine.
func NewOriginalSN(spec platform.Spec, nodes int, coresPer int, seed int64, intra int) *Deployment {
	env, machines := newNodes(intra, spec, nodes, nodeName("node"), platform.WithCoreCount(coresPer))
	i := 0
	sn := app.NewSocialNetwork(func(string) *platform.Machine {
		m := machines[i%len(machines)]
		i++
		return m
	}, 9000, seed)
	sn.Start()
	return &Deployment{Env: env, Machines: machines, Frontend: sn.Frontend.Machine(),
		Port: sn.Port(), Tiers: sn.Tiers, Order: append([]string(nil), sn.Order...),
		Collector: sn.Collector, client: "wrk2"}
}

// NewSynthSN deploys a fully synthetic Social Network from a clone: every
// tier replaced by its Ditto-generated counterpart (Fig. 6). intra is the
// intra-cell parallelism, as in NewOriginalSN.
func NewSynthSN(clone *SNClone, spec platform.Spec, nodes, coresPer int, seed int64, intra int) *Deployment {
	env, machines := newNodes(intra, spec, nodes, nodeName("snode"), platform.WithCoreCount(coresPer))
	return deploySynth(env, machines, clone, seed, "wrk2")
}

// NewOriginalFS deploys the original DittoFS with the given content backend:
// the adapter on the environment's server machine and, for the blob backend,
// the blob-store tier on its own machine (remote disk attribution). intra is
// the intra-cell parallelism, as in NewOriginalSN.
func NewOriginalFS(backend string, spec platform.Spec, seed int64, intra int) *Deployment {
	n := 1
	if backend == "blob" {
		n = 2
	}
	env, machines := newNodes(intra, spec, n, func(int) string { return "blob" }, platform.WithCoreCount(8))
	var blobM *platform.Machine
	if n > 1 {
		blobM = machines[1]
	}
	svc := dittofs.NewService(env.Server, blobM, 9300, dittofs.DefaultConfig(backend), seed)
	d := &Deployment{Env: env, Machines: machines, Frontend: env.Server, Port: 9300,
		Tiers: map[string]*app.Tier{dittofs.AdapterName: svc.Adapter}, Order: []string{dittofs.AdapterName},
		Collector: dtrace.NewCollector(1), client: "fs-client"}
	svc.Adapter.Collector = d.Collector
	if svc.Blob != nil {
		svc.Blob.Collector = d.Collector
		d.Order = append(d.Order, dittofs.BlobName)
		d.Tiers[dittofs.BlobName] = svc.Blob
	}
	svc.Start()
	return d
}

// NewSynthFS deploys the synthetic DittoFS from a clone: the adapter stand-in
// on the server machine and, when the clone has a blob tier, its stand-in on
// a second machine — the same placement as the original.
func NewSynthFS(clone *SNClone, spec platform.Spec, seed int64, intra int) *Deployment {
	env, machines := newNodes(intra, spec, min(len(clone.Order), 2), func(int) string { return "sblob" }, platform.WithCoreCount(8))
	return deploySynth(env, machines, clone, seed, "fs-client")
}

// synthRegistry resolves original tier names to the synthetic tiers.
type synthRegistry map[string]*app.Tier

func (r synthRegistry) Lookup(name string) (*kernel.Kernel, int) {
	t := r[name]
	return t.Machine().Kernel, t.Cfg.Port
}

// deploySynth stands up every tier of a clone round-robin over machines —
// the synthetic half of both multi-tier families.
func deploySynth(env *Env, machines []*platform.Machine, clone *SNClone, seed int64, client string) *Deployment {
	reg := synthRegistry{}
	collector := dtrace.NewCollector(1)
	for i, name := range clone.Order {
		t := synth.NewTier(machines[i%len(machines)], 9500+i, clone.Specs[name], clone.Plans[name], reg, seed+int64(i))
		t.Collector = collector
		reg[name] = t
	}
	// Start in construction order: spawn order is part of determinism.
	for _, name := range clone.Order {
		reg[name].Start()
	}
	fe := reg[clone.Root]
	return &Deployment{Env: env, Machines: machines, Frontend: fe.Machine(), Port: fe.Cfg.Port,
		Tiers: reg, Order: append([]string(nil), clone.Order...), Collector: collector, client: client}
}

// SNClone is the full set of artifacts Ditto extracts from one multi-tier
// profiling run: per-tier profiles and specs plus the learned topology.
type SNClone struct {
	Profiles map[string]*profile.AppProfile
	Specs    map[string]*core.SynthSpec
	Plans    map[string]*core.TierPlan
	Order    []string
	Root     string
}

// CloneSN profiles every tier of a running original deployment under load
// and generates the synthetic specs (§4.2: topology from traces; per-tier
// skeleton and body from the tier profilers).
func CloneSN(spec platform.Spec, nodes, coresPer int, load Load, win Windows, seed int64) *SNClone {
	return cloneTiers(NewOriginalSN(spec, nodes, coresPer, seed, 0), load, win, seed)
}

// CloneFS profiles a running original DittoFS deployment under load and
// generates the synthetic specs for every tier — the §4 pipeline applied to
// the storage family. The learned topology carries the adapter→blob edge
// for the blob backend; the profiled syscall plans carry the WAL appends,
// fsyncs, and content-store traffic.
func CloneFS(backend string, spec platform.Spec, load Load, win Windows, seed int64) *SNClone {
	return cloneTiers(NewOriginalFS(backend, spec, seed, 0), load, win, seed)
}

// cloneTiers profiles every tier of the original deployment d under load,
// learns the topology from its traces, generates one spec per tier, and
// shuts d down.
func cloneTiers(d *Deployment, load Load, win Windows, seed int64) *SNClone {
	profilers := map[string]*profile.Profiler{}
	for _, name := range d.Order {
		p := profile.NewProfiler(name)
		p.MaxDataWS = 64 << 20
		p.MaxInstrWS = 256 << 10
		p.Attach(d.TierProc(name))
		profilers[name] = p
	}
	d.startClient(load)
	d.Env.RunFor(win.Warmup + win.Measure)

	spans := d.Collector.Spans()
	plans := core.LearnTopology(spans)
	spanCount := map[string]int{}
	for _, s := range spans {
		spanCount[s.Service]++
	}
	clone := &SNClone{
		Profiles: map[string]*profile.AppProfile{},
		Specs:    map[string]*core.SynthSpec{},
		Plans:    plans,
		Order:    append([]string(nil), d.Order...),
		Root:     d.Order[0],
	}
	for i, name := range clone.Order {
		p := profilers[name]
		if n := spanCount[name]; n > 0 {
			p.SetRequests(n)
		}
		prof := p.Finish()
		clone.Profiles[name] = prof
		clone.Specs[name] = core.Generate(prof, seed+int64(i)*31)
		if plans[name] == nil {
			plans[name] = &core.TierPlan{Service: name, Calls: map[int][]app.Call{}}
		}
	}
	d.Env.Shutdown()
	return clone
}

// MeasureSN drives the deployment and returns end-to-end results plus the
// per-tier counter deltas for the named tiers.
func MeasureSN(d *Deployment, load Load, win Windows, tiers []string) (Result, map[string]Result) {
	g := d.startClient(load)
	d.Env.WarmupFor(win.Warmup)
	d.Env.ArmSampling()
	g.Reset()
	before := map[string]snapshot{}
	for _, tn := range tiers {
		if p := d.TierProc(tn); p != nil {
			before[tn] = snap(p)
		}
	}
	start := d.Env.Now()
	d.Env.RunFor(win.Measure)
	dur := (d.Env.Now() - start).Seconds()

	e2e := latencyResult(g, dur)
	perTier := map[string]Result{}
	for _, tn := range tiers {
		p := d.TierProc(tn)
		if p == nil {
			continue
		}
		r := counterResult(before[tn], snap(p), dur)
		// Per-tier service latency from the measurement window's spans —
		// the per-tier latency row of Fig. 5.
		if d.Collector != nil {
			var lat stats.Recorder
			for _, sp := range d.Collector.Spans() {
				// Synthetic tiers record spans under "<service>-synth".
				if (sp.Service == tn || sp.Service == tn+"-synth") && sp.Start >= start {
					lat.Add(sp.Duration().Millis())
				}
			}
			r.AvgMs = lat.Mean()
			r.P50Ms = lat.Percentile(50)
			r.P95Ms = lat.Percentile(95)
			r.P99Ms = lat.Percentile(99)
		}
		perTier[tn] = r
	}
	return e2e, perTier
}

// MeasureFS drives the deployment with the FS mix and returns the
// storage-side fidelity point measured over the post-warmup window.
func MeasureFS(d *Deployment, load Load, win Windows) FigSPoint {
	g := d.startClient(load)
	d.Env.RunFor(win.Warmup)
	g.Reset()
	before := storageOf(d.Machines)
	for _, m := range d.Machines {
		// Fsync latency is measured over the window only: reset the
		// recorder at the warmup edge.
		m.Kernel.FsyncLatency().Reset()
	}
	start := d.Env.Now()
	d.Env.RunFor(win.Measure)
	dur := (d.Env.Now() - start).Seconds()
	after := storageOf(d.Machines)

	lat := g.Latency()
	pt := FigSPoint{
		P50Ms:      lat.Percentile(50),
		P95Ms:      lat.Percentile(95),
		P99Ms:      lat.Percentile(99),
		Throughput: float64(g.Received()) / dur,
	}
	hits, misses := after.hits-before.hits, after.misses-before.misses
	pt.DiskReadBW = float64(after.read-before.read) / dur
	pt.DiskWriteBW = float64(after.write-before.write) / dur
	if hits+misses > 0 {
		pt.PCHitRate = float64(hits) / float64(hits+misses)
	}
	pt.FsyncRate = float64(after.fsyncs-before.fsyncs) / dur
	// The WAL commit path fsyncs on the adapter machine — Machines[0] in
	// both deployments.
	fl := d.Machines[0].Kernel.FsyncLatency()
	pt.FsyncMeanMs = fl.Mean()
	pt.FsyncP99Ms = fl.Percentile(99)
	return pt
}

// storageCounters sums device, page-cache and fsync counters over server
// machines.
type storageCounters struct{ read, write, hits, misses, fsyncs uint64 }

func storageOf(machines []*platform.Machine) storageCounters {
	var s storageCounters
	for _, m := range machines {
		c := m.Disk.Counters()
		h, ms := m.Kernel.PageCacheStats()
		s.read += c.ReadBytes
		s.write += c.WriteBytes
		s.hits += h
		s.misses += ms
		s.fsyncs += m.Kernel.Fsyncs()
	}
	return s
}
