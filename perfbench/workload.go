package main

import (
	"fmt"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/dtrace"
	"ditto/internal/experiments"
	"ditto/internal/kernel"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/sim"
	"ditto/internal/synth"
)

// family is the shape of a deployment: how the original and the clone are
// stood up, and which of their tiers are profiled and compared.
type family int

const (
	singleTier family = iota // one server process (NGINX)
	socialNet                // multi-tier Social Network over RPC
	dittoFS                  // DittoFS adapter over a storage backend
)

// workload is one benchmark input: an application, its platform, the load
// that drives it and the windows it is measured over. The load is built
// here from the seed.
//
// A window ends once the load generator has sent a fixed number of
// requests rather than after a fixed simulated time. Open-loop arrivals
// are Poisson, so a fixed time would hold a seed-dependent amount of work
// (±7 % over a 300 ms Social Network window) and move every host-time
// metric with it. The Social Network window is the longest because its
// request kinds differ most in cost: the share of compose-post requests in
// 240 requests varies by ±20 % from seed to seed.
type workload struct {
	name string
	why  string

	family   family
	spec     platform.Spec
	nodes    int // server machines (socialNet only)
	cores    int // cores per server machine
	sampled  bool
	qps      float64 // 0 = closed loop
	conns    int
	mix      []loadgen.MixEntry
	warmup   sim.Time
	requests int      // requests sent in the profile window and in each validation window
	measure  sim.Time // the simulated length those requests nominally take
	maxDWS   int      // profiler working-set sweep limit (data)
	maxIWS   int      // profiler working-set sweep limit (instructions), 0 = default
	fidelity []string // tiers whose CPU counters are compared
}

// nginxMix is the static-content request mix: small GETs.
func nginxMix() []loadgen.MixEntry {
	return []loadgen.MixEntry{{Kind: 0, Weight: 1, ReqBytes: 96}}
}

// nginxRate is the open-loop Poisson rate for both NGINX workloads, about
// half of the ≈75k req/s closed-loop capacity of NGINX on Platform A with
// 8 cores: the paper's medium load.
const nginxRate = 37500

// workloads is the benchmark's workload table: the ones BENCHMARK.json
// lists, in its order, then socialnet. socialnet runs by hand only: one of
// its iterations takes about 18 s of host time, so a run of
// BENCHMARK.json's length holds two of them, too few to steady their
// mean, and its runs would take a quarter of the time the whole benchmark
// may use. The layers it stresses most — netsim, dtrace, topology
// learning, the engine — also work on dittofs-lsm.
var workloads = []workload{
	{
		name:     "nginx-full",
		why:      "NGINX at medium open-loop load, fully executed: the cpu and cache models and the profiler's working-set simulator do most of the work",
		family:   singleTier,
		spec:     platform.A(),
		cores:    8,
		qps:      nginxRate,
		conns:    16,
		mix:      nginxMix(),
		warmup:   4 * sim.Millisecond,
		requests: 400,
		measure:  12 * sim.Millisecond,
		maxDWS:   32 << 20,
	},
	{
		name:     "nginx-sampled",
		why:      "same NGINX load under sampled steady-state execution with a 10x window: the sampler models most measured requests, so cpu and cache do little",
		family:   singleTier,
		spec:     platform.A(),
		cores:    8,
		sampled:  true,
		qps:      nginxRate,
		conns:    16,
		mix:      nginxMix(),
		warmup:   4 * sim.Millisecond,
		requests: 4000,
		measure:  120 * sim.Millisecond,
		maxDWS:   32 << 20,
	},
	{
		name:     "dittofs-lsm",
		why:      "closed-loop DittoFS on the lsm backend with a 64MB page cache: page-cache misses, dirty writeback, fsync, the disk queue and the WAL",
		family:   dittoFS,
		spec:     fsSpec(),
		cores:    8,
		conns:    12,
		mix:      loadgen.FSMix(),
		warmup:   10 * sim.Millisecond,
		requests: 420,
		measure:  30 * sim.Millisecond,
		maxDWS:   64 << 20,
		maxIWS:   256 << 10,
		fidelity: []string{"dittofs-adapter"},
	},
	{
		name:     "socialnet",
		why:      "two-node Social Network cloned from traces: RPC fan-out through app tiers, netsim, the kernel network path and span recording",
		family:   socialNet,
		spec:     platform.A(),
		nodes:    2,
		cores:    8,
		qps:      800,
		conns:    12,
		mix:      experiments.SNMix(),
		warmup:   60 * sim.Millisecond,
		requests: 480,
		measure:  600 * sim.Millisecond,
		maxDWS:   64 << 20,
		maxIWS:   256 << 10,
		fidelity: []string{"text-service", "social-graph-service"},
	},
}

// fsSpec is Platform A with the page cache shrunk far below the DittoFS
// dataset, so content reads miss and eviction writeback runs in the window.
func fsSpec() platform.Spec {
	spec := platform.A()
	spec.PageCacheMB = 64
	return spec
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// load is the workload's load at seed: the only thing the seed varies.
func (w workload) load(seed int64) experiments.Load {
	return experiments.Load{QPS: w.qps, Conns: w.conns, Mix: w.mix, Seed: seed}
}

// deployment is one running original or clone, reduced to what the
// benchmark drives and reads: the environment, the loadgen target, the
// server machines and the server processes by tier name.
type deployment struct {
	env       *experiments.Env
	machines  []*platform.Machine // server side only; the client is excluded
	target    *kernel.Kernel
	port      int
	tiers     []string // server process names in deployment order
	proc      func(tier string) *kernel.Proc
	collector *dtrace.Collector // nil when the deployment records no spans
}

// procs returns every server process of the deployment, in tier order.
func (d *deployment) procs() []*kernel.Proc {
	out := make([]*kernel.Proc, 0, len(d.tiers))
	for _, t := range d.tiers {
		out = append(out, d.proc(t))
	}
	return out
}

// nginxPort is the original NGINX's listening port; the clone listens on
// synthPort, as the fine-tuner's measurement arm does.
const (
	nginxPort = 80
	synthPort = 9100
)

// deployOriginal stands up the original application with the given model
// seed.
func (w workload) deployOriginal(seed int64) *deployment {
	switch w.family {
	case socialNet:
		d := experiments.NewOriginalSN(w.spec, w.nodes, w.cores, seed, 0)
		return multiTier(d.Env, d.Machines, d.Frontend.Kernel, d.Port, d.Order, d.TierProc, d.Collector)
	case dittoFS:
		d := experiments.NewOriginalFS("lsm", w.spec, seed, 0)
		return multiTier(d.Env, d.Machines, d.Frontend.Kernel, d.Port, d.Order, d.TierProc, d.Collector)
	}
	env := w.newEnv(seed)
	a := app.NewNginx(env.Server, nginxPort, seed+2)
	a.Start()
	return single(env, a)
}

// deployClone stands up the clone generated from c with the given model
// seed.
func (w workload) deployClone(c *experiments.SNClone, seed int64) *deployment {
	switch w.family {
	case socialNet:
		d := experiments.NewSynthSN(c, w.spec, w.nodes, w.cores, seed, 0)
		return multiTier(d.Env, d.Machines, d.Frontend.Kernel, d.Port, d.Order, d.TierProc, d.Collector)
	case dittoFS:
		d := experiments.NewSynthFS(c, w.spec, seed, 0)
		return multiTier(d.Env, d.Machines, d.Frontend.Kernel, d.Port, d.Order, d.TierProc, d.Collector)
	}
	env := w.newEnv(seed)
	s := synth.NewServer(env.Server, synthPort, c.Specs[c.Root], seed+99)
	s.Start()
	d := single(env, s)
	d.tiers = []string{c.Root} // the clone stands in under the original's name
	return d
}

// newEnv builds a single-tier environment, sampled when the workload is.
func (w workload) newEnv(seed int64) *experiments.Env {
	env := experiments.NewEnv(w.spec, platform.WithCoreCount(w.cores))
	if w.sampled {
		env.EnableSampling(seed)
	}
	return env
}

// single wraps a single-tier deployment.
func single(env *experiments.Env, a app.App) *deployment {
	return &deployment{
		env: env, machines: []*platform.Machine{env.Server},
		target: a.Machine().Kernel, port: a.Port(), tiers: []string{a.Name()},
		proc: func(string) *kernel.Proc { return a.Proc() },
	}
}

// multiTier wraps a Social Network or DittoFS deployment.
func multiTier(env *experiments.Env, machines []*platform.Machine, target *kernel.Kernel, port int,
	order []string, proc func(string) *kernel.Proc, col *dtrace.Collector) *deployment {
	return &deployment{env: env, machines: machines, target: target, port: port,
		tiers: append([]string(nil), order...), proc: proc, collector: col}
}

// newProfilers attaches one profiler to every tier of the original.
func (w workload) newProfilers(d *deployment) []*profile.Profiler {
	ps := make([]*profile.Profiler, len(d.tiers))
	for i, t := range d.tiers {
		p := profile.NewProfiler(t)
		p.MaxDataWS = w.maxDWS
		if w.maxIWS > 0 {
			p.MaxInstrWS = w.maxIWS
		}
		p.Attach(d.proc(t))
		ps[i] = p
	}
	return ps
}

// spanCounts counts each service's spans that started at or after from: the
// per-tier request counts of a profile window, taken from the traces.
func spanCounts(spans []dtrace.Span, from sim.Time) map[string]int {
	n := map[string]int{}
	for _, s := range spans {
		if s.Start >= from {
			n[s.Service]++
		}
	}
	return n
}

// newClone assembles the clone skeleton for the original's tiers: the
// root tier takes the load, and every tier without a learned plan gets an
// empty one.
func newClone(d *deployment, plans map[string]*core.TierPlan) *experiments.SNClone {
	c := &experiments.SNClone{
		Profiles: map[string]*profile.AppProfile{},
		Specs:    map[string]*core.SynthSpec{},
		Plans:    plans,
		Order:    append([]string(nil), d.tiers...),
		Root:     d.tiers[0],
	}
	if c.Plans == nil {
		c.Plans = map[string]*core.TierPlan{}
	}
	for _, t := range c.Order {
		if c.Plans[t] == nil {
			c.Plans[t] = &core.TierPlan{Service: t, Calls: map[int][]app.Call{}}
		}
	}
	return c
}

// fidelityTiers lists the tiers whose CPU metrics are compared, defaulting
// to the single server process.
func (w workload) fidelityTiers(d *deployment) []string {
	if len(w.fidelity) > 0 {
		return w.fidelity
	}
	return d.tiers[:1]
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
