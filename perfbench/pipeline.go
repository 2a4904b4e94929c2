package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"

	"ditto/internal/core"
	"ditto/internal/cpu"
	"ditto/internal/disk"
	"ditto/internal/experiments"
	"ditto/internal/isa"
	"ditto/internal/kernel"
	"ditto/internal/loadgen"
	"ditto/internal/profile"
	"ditto/internal/sim"
	"ditto/internal/stats"
)

// window is what one validation window measured, as deltas over the window
// except where noted.
type window struct {
	SimS    float64 // simulated seconds measured
	Measure cost    // host time the window took

	Tiers  map[string]cpu.Counters // fidelity tiers
	Server cpu.Counters            // all server processes, summed

	P50Ms, P95Ms, P99Ms float64
	Sent, OK, Failed    int
	// Lifetime loadgen totals at the end of the window, warmup included:
	// what the request balance is checked on.
	LifeSent, LifeReceived, Conns int

	Disk                 disk.Counters // server machines, summed
	PCHits, PCMisses     uint64
	Fsyncs               uint64
	NetBytes             uint64 // server NICs, tx+rx
	Events               uint64 // engine events fired
	Machines             int    // server machines
	Syscalls             uint64 // traced runs only
	Observed, Modeled    uint64 // request bodies, traced runs only
	WarmupSimMs          float64
	Deploy, Warmup, Shut cost
}

// iteration is one complete pipeline run at one seed: the child process's
// report to the parent.
type iteration struct {
	Digest string

	// Host time of the whole pipeline, of its clone phase, and of the
	// deploy and warmup of the two validation phases.
	Run, ClonePhase, Setup cost
	PeakRSSMB              float64

	Orig, Clone window

	// Profile window: loadgen lifetime totals for the request balance.
	ProfSent, ProfReceived, ProfFailed int

	Layers map[string]float64 `json:",omitempty"` // traced runs only
	Notes  map[string]string  `json:",omitempty"` // why a layer metric is 0
	Spans  []span             `json:",omitempty"`
}

// modelSeed seeds everything that is not an input: the applications being
// cloned (NGINX's code and data layout, the Social Network and DittoFS tier
// models), the steady-state samplers and Ditto's generator. Every benchmark
// seed therefore clones the same application; the seed varies only the
// load. When the benchmark seed also seeded the models, some seeds' NGINX
// took 10 % more host time to simulate and profile than others'.
const modelSeed = 1

// pipeline runs the Ditto pipeline for one workload at one seed: profile the
// original, generate the clone, then measure original and clone under the
// same load.
type pipeline struct {
	w    workload
	seed int64   // seeds the load: arrival times and request-mix draws
	tr   *tracer // nil in timed runs

	// Trace-only state.
	capture  *capture
	profRunS float64 // host CPU seconds of the profile window
	profObs  uint64  // instructions the profilers observed
	finishS  float64
	genS     float64
	topoS    float64
	dtSpans  int
}

// run executes one iteration and fills everything but PeakRSSMB.
func (p *pipeline) run() *iteration {
	it := &iteration{}
	var c *experiments.SNClone
	it.Run = p.tr.do("pipeline", func() {
		runtime.GC()
		p.tr.do("phase.clone", func() { it.ClonePhase = p.cloneOriginal(it, &c) })
		runtime.GC()
		p.tr.do("phase.original", func() {
			it.Orig = p.validate(func() *deployment { return p.w.deployOriginal(modelSeed) }, "app.measure", p.tr != nil, p.capture)
		})
		runtime.GC()
		p.tr.do("phase.clone_validation", func() {
			it.Clone = p.validate(func() *deployment { return p.w.deployClone(c, modelSeed) }, "synth.measure", p.tr != nil, nil)
		})
	})
	for _, w := range []*window{&it.Orig, &it.Clone} {
		it.Setup.add(w.Deploy)
		it.Setup.add(w.Warmup)
	}
	it.Digest = p.digest(it, c)
	return it
}

// cloneOriginal deploys the original, warms it up, profiles one window and
// generates the clone into *out. It returns the host time the clone phase
// took, shutdown excluded.
func (p *pipeline) cloneOriginal(it *iteration, out **experiments.SNClone) cost {
	var total cost
	var d *deployment
	total.add(p.tr.do("experiments.deploy", func() { d = p.w.deployOriginal(modelSeed) }))
	g := p.startLoad(d)
	total.add(p.tr.do("experiments.warmup", func() { d.env.WarmupFor(p.w.warmup) }))
	d.env.ArmSampling()
	from := d.env.Now()

	warmSent, warmRecv, warmFailed := g.Sent(), g.Received(), g.Failed()
	g.Reset()
	var profs []*profile.Profiler
	obs0, mod0 := bodies(d)
	run := p.tr.do("profile.window", func() {
		profs = p.w.newProfilers(d)
		p.runWindow(d, g)
	})
	total.add(run)
	p.profRunS = run.CPU.Seconds()
	obs1, mod1 := bodies(d)

	var plans map[string]*core.TierPlan
	var reqs map[string]int
	if d.collector != nil {
		topo := p.tr.do("core.topology", func() {
			spans := d.collector.Spans()
			plans = core.LearnTopology(spans)
			reqs = spanCounts(spans, from)
			p.dtSpans = len(spans)
		})
		total.add(topo)
		p.topoS = topo.CPU.Seconds()
	}
	c := newClone(d, plans)
	profiles := make([]*profile.AppProfile, len(profs))
	fin := p.tr.do("profile.finish", func() {
		for i, pr := range profs {
			if n := reqs[d.tiers[i]]; n > 0 {
				pr.SetRequests(n)
			}
			profiles[i] = pr.Finish()
		}
	})
	total.add(fin)
	p.finishS = fin.CPU.Seconds()
	gen := p.tr.do("core.generate", func() {
		for i, t := range c.Order {
			c.Profiles[t] = profiles[i]
			c.Specs[t] = core.Generate(profiles[i], modelSeed+int64(i)*31)
		}
	})
	total.add(gen)
	p.genS = gen.CPU.Seconds()

	// The profilers observed executed bodies only: under sampling the
	// profile's per-request absolutes are scaled up by the modeled share,
	// which is undone here to count what was actually observed.
	obs, mod := obs1-obs0, mod1-mod0
	for _, pf := range profiles {
		n := pf.Body.InstrsPerRequest * float64(pf.Requests)
		if mod > 0 {
			n *= float64(obs) / float64(obs+mod)
		}
		p.profObs += uint64(n + 0.5)
	}

	it.ProfSent, it.ProfReceived, it.ProfFailed = warmSent+g.Sent(), warmRecv+g.Received(), warmFailed+g.Failed()
	p.tr.do("experiments.shutdown", d.env.Shutdown)
	*out = c
	return total
}

// bodies sums the observed and modeled request bodies of the deployment's
// server processes.
func bodies(d *deployment) (obs, mod uint64) {
	for _, pr := range d.procs() {
		obs += pr.ObservedBodies
		mod += pr.ModeledBodies
	}
	return obs, mod
}

func (p *pipeline) startLoad(d *deployment) *loadgen.Generator {
	l := p.w.load(p.seed)
	g := loadgen.New(loadgen.Config{
		Name: "lg", Machine: d.env.Client, Target: d.target, Port: d.port,
		Conns: l.Conns, QPS: l.QPS, Mix: l.Mix, Seed: l.Seed,
	})
	g.Start()
	return g
}

// windowSlice is the simulated step a window advances by between checks of
// the request count: short enough that a window overshoots its count by
// at most a few requests.
const windowSlice = 100 * sim.Microsecond

// runWindow advances the deployment until g has sent the workload's
// requests since its last Reset, or for ten nominal windows if it stalls —
// which the output checks then report as too few completions.
func (p *pipeline) runWindow(d *deployment, g *loadgen.Generator) {
	end := d.env.Now() + 10*p.w.measure
	for g.Sent() < p.w.requests && d.env.Now() < end {
		d.env.RunFor(windowSlice)
	}
}

// machineSnap is the storage and network state of the server machines.
type machineSnap struct {
	disk             disk.Counters
	pcHits, pcMisses uint64
	fsyncs           uint64
	net              uint64
}

func snapMachines(d *deployment) machineSnap {
	var s machineSnap
	for _, m := range d.machines {
		c := m.Disk.Counters()
		s.disk.ReadOps += c.ReadOps
		s.disk.WriteOps += c.WriteOps
		s.disk.ReadBytes += c.ReadBytes
		s.disk.WriteBytes += c.WriteBytes
		s.disk.BusyTime += c.BusyTime
		h, ms := m.Kernel.PageCacheStats()
		s.pcHits += h
		s.pcMisses += ms
		s.fsyncs += m.Kernel.Fsyncs()
		s.net += m.NIC.TxBytes + m.NIC.RxBytes
	}
	return s
}

// validate deploys one variant, warms it up and measures one window. With
// observe it also counts syscalls and request bodies through observers — no
// profiler owns those hooks here — and, when streams is set, captures the
// window's user instruction streams for the replays.
func (p *pipeline) validate(deploy func() *deployment, measureSpan string, observe bool, streams *capture) window {
	var w window
	var d *deployment
	w.Deploy = p.tr.do("experiments.deploy", func() { d = deploy() })
	g := p.startLoad(d)
	t0 := d.env.Now()
	w.Warmup = p.tr.do("experiments.warmup", func() { d.env.WarmupFor(p.w.warmup) })
	w.WarmupSimMs = (d.env.Now() - t0).Millis()
	d.env.ArmSampling()
	warmSent, warmRecv := g.Sent(), g.Received()
	g.Reset()

	procs := d.procs()
	before := make([]cpu.Counters, len(procs))
	for i, pr := range procs {
		before[i] = pr.Counters
	}
	tierBefore := map[string]cpu.Counters{}
	for _, t := range p.w.fidelityTiers(d) {
		tierBefore[t] = d.proc(t).Counters
	}
	ms0 := snapMachines(d)
	ev0 := d.env.Eng.Fired()
	obs0, mod0 := bodies(d)

	counting := false
	if observe {
		counting = true
		for _, m := range d.machines {
			m.Kernel.ObserveSyscalls(func(kernel.SyscallEvent) {
				if counting {
					w.Syscalls++
				}
			})
		}
		for _, pr := range procs {
			if streams != nil {
				pr.ObserveInstrs(streams.add)
			} else {
				pr.ObserveInstrs(func([]isa.Instr) {})
			}
		}
	}

	start := d.env.Now()
	w.Measure = p.tr.do(measureSpan, func() { p.runWindow(d, g) })
	w.SimS = (d.env.Now() - start).Seconds()

	if observe {
		counting = false
		for _, pr := range procs {
			pr.ObserveInstrs(nil)
		}
		obs1, mod1 := bodies(d)
		w.Observed, w.Modeled = obs1-obs0, mod1-mod0
	}
	w.Events = d.env.Eng.Fired() - ev0
	for i, pr := range procs {
		w.Server.Add(deltaCounters(pr.Counters, before[i]))
	}
	w.Tiers = map[string]cpu.Counters{}
	for t, b := range tierBefore {
		w.Tiers[t] = deltaCounters(d.proc(t).Counters, b)
	}
	ms1 := snapMachines(d)
	w.Disk = disk.Counters{
		ReadOps: ms1.disk.ReadOps - ms0.disk.ReadOps, WriteOps: ms1.disk.WriteOps - ms0.disk.WriteOps,
		ReadBytes: ms1.disk.ReadBytes - ms0.disk.ReadBytes, WriteBytes: ms1.disk.WriteBytes - ms0.disk.WriteBytes,
		BusyTime: ms1.disk.BusyTime - ms0.disk.BusyTime,
	}
	w.PCHits, w.PCMisses = ms1.pcHits-ms0.pcHits, ms1.pcMisses-ms0.pcMisses
	w.Fsyncs = ms1.fsyncs - ms0.fsyncs
	w.NetBytes = ms1.net - ms0.net
	w.Machines = len(d.machines)

	lat := g.Latency()
	w.P50Ms, w.P95Ms, w.P99Ms = lat.Percentile(50), lat.Percentile(95), lat.Percentile(99)
	w.Sent, w.Failed = g.Sent(), g.Failed()
	w.OK = g.Received() - g.Failed()
	w.LifeSent, w.LifeReceived, w.Conns = warmSent+g.Sent(), warmRecv+g.Received(), p.w.conns
	if observe && d.collector != nil {
		p.dtSpans += len(d.collector.Spans())
	}
	w.Shut = p.tr.do("experiments.shutdown", d.env.Shutdown)
	return w
}

// deltaCounters subtracts a counter snapshot.
func deltaCounters(now, base cpu.Counters) cpu.Counters {
	d := now
	d.Instrs -= base.Instrs
	d.KernelInstrs -= base.KernelInstrs
	d.Uops -= base.Uops
	d.Cycles -= base.Cycles
	d.Branches -= base.Branches
	d.Mispred -= base.Mispred
	d.L1iAcc -= base.L1iAcc
	d.L1iMiss -= base.L1iMiss
	d.L1dAcc -= base.L1dAcc
	d.L1dMiss -= base.L1dMiss
	d.L2Acc -= base.L2Acc
	d.L2Miss -= base.L2Miss
	d.L3Acc -= base.L3Acc
	d.L3Miss -= base.L3Miss
	d.MemAcc -= base.MemAcc
	d.LoadBytes -= base.LoadBytes
	d.StoreBytes -= base.StoreBytes
	d.Retiring -= base.Retiring
	d.Frontend -= base.Frontend
	d.BadSpec -= base.BadSpec
	d.Backend -= base.Backend
	return d
}

// digest hashes every simulated result of the iteration: counters, request
// counts, latency percentiles, storage and network counts, events fired and
// the generated specs, JSON-encoded. Host times are left out, so the digest
// is a pure function of the code and the seed.
func (p *pipeline) digest(it *iteration, c *experiments.SNClone) string {
	h := sha256.New()
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(h, "profile sent=%d received=%d failed=%d\n", it.ProfSent, it.ProfReceived, it.ProfFailed)
	for _, v := range []struct {
		name string
		w    *window
	}{{"original", &it.Orig}, {"clone", &it.Clone}} {
		w := v.w
		fmt.Fprintf(h, "%s sim=%s server=%+v\n", v.name, f(w.SimS), w.Server)
		for _, t := range sortedKeys(w.Tiers) {
			fmt.Fprintf(h, "%s tier %s %+v\n", v.name, t, w.Tiers[t])
		}
		fmt.Fprintf(h, "%s p50=%s p95=%s p99=%s sent=%d ok=%d failed=%d life=%d/%d\n", v.name,
			f(w.P50Ms), f(w.P95Ms), f(w.P99Ms), w.Sent, w.OK, w.Failed, w.LifeSent, w.LifeReceived)
		fmt.Fprintf(h, "%s disk=%+v pc=%d/%d fsyncs=%d net=%d events=%d warmup=%s\n", v.name,
			w.Disk, w.PCHits, w.PCMisses, w.Fsyncs, w.NetBytes, w.Events, f(w.WarmupSimMs))
	}
	enc := json.NewEncoder(h)
	for _, t := range c.Order {
		fmt.Fprintf(h, "spec %s\n", t)
		if err := enc.Encode(c.Specs[t]); err != nil {
			fmt.Fprintf(h, "unencodable: %v\n", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys(m map[string]cpu.Counters) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fidelity is the clone's error against the original, in percent.
type fidelity struct {
	CPU, P95, Tput, IO float64
	HasIO              bool
}

// fidelityOf compares the two validation windows: CPU metrics of the
// fidelity tiers (§6.2.1), client p95 latency, throughput and — where the
// original does I/O in the window — storage behaviour.
func fidelityOf(o, c window) fidelity {
	var f fidelity
	var cpuErr stats.Recorder
	for _, t := range sortedKeys(o.Tiers) {
		oc, cc := o.Tiers[t], c.Tiers[t]
		for _, pair := range [][2]float64{
			{cc.IPC(), oc.IPC()},
			{cc.BranchMissRate(), oc.BranchMissRate()},
			{cc.L1iMissRate(), oc.L1iMissRate()},
			{cc.L1dMissRate(), oc.L1dMissRate()},
			{cc.L2MissRate(), oc.L2MissRate()},
			{cc.L3MissRate(), oc.L3MissRate()},
		} {
			cpuErr.Add(stats.AbsPctErr(pair[0], pair[1]))
		}
	}
	f.CPU = cpuErr.Mean()
	f.P95 = stats.AbsPctErr(c.P95Ms, o.P95Ms)
	f.Tput = stats.AbsPctErr(float64(c.OK+c.Failed)/c.SimS, float64(o.OK+o.Failed)/o.SimS)
	if o.Disk.ReadOps+o.Disk.WriteOps+o.Fsyncs > 0 {
		f.HasIO = true
		f.IO = (stats.AbsPctErr(float64(c.Disk.ReadBytes)/c.SimS, float64(o.Disk.ReadBytes)/o.SimS) +
			stats.AbsPctErr(float64(c.Disk.WriteBytes)/c.SimS, float64(o.Disk.WriteBytes)/o.SimS) +
			stats.AbsPctErr(hitRate(c), hitRate(o)) +
			stats.AbsPctErr(float64(c.Fsyncs)/c.SimS, float64(o.Fsyncs)/o.SimS)) / 4
	}
	return f
}

func hitRate(w window) float64 {
	if w.PCHits+w.PCMisses == 0 {
		return 0
	}
	return float64(w.PCHits) / float64(w.PCHits+w.PCMisses)
}
