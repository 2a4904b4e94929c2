package main

import (
	"runtime"
	"time"

	"ditto/internal/branch"
	"ditto/internal/cache"
	"ditto/internal/cpu"
	"ditto/internal/isa"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// capture keeps a copy of the first user instruction streams the original
// executes in its validation window, up to a budget of instructions: the
// workload's own inputs for the layer replays.
type capture struct {
	budget  int
	n       int
	streams [][]isa.Instr
}

// captureBudget bounds the captured instructions (about 16MB of streams).
const captureBudget = 400_000

func (c *capture) add(s []isa.Instr) {
	if c.n >= c.budget || len(s) == 0 {
		return
	}
	c.streams = append(c.streams, append([]isa.Instr(nil), s...))
	c.n += len(s)
}

// replayMin is the least host time each replay is repeated for, so that its
// per-unit cost is not a handful of clock ticks.
const replayMin = 150 * time.Millisecond

// repeat runs pass until replayMin has elapsed and returns host wall-clock
// nanoseconds per unit, where one pass does units units of work.
func (p *pipeline) repeat(name string, units int, pass func()) float64 {
	if units == 0 {
		return 0
	}
	var passes int
	d := p.tr.do(name, func() {
		start := time.Now()
		for passes == 0 || time.Since(start) < replayMin {
			pass()
			passes++
		}
	})
	return float64(d.Wall.Nanoseconds()) / float64(passes*units)
}

// replays times each layer's public entry point on the captured streams,
// on fresh state of the workload's platform, and returns ns per unit.
func (p *pipeline) replays() map[string]float64 {
	out := map[string]float64{}
	c := p.capture
	var instrs int
	var addrs []uint64
	var pcs []uint64
	var taken []bool
	for _, s := range c.streams {
		instrs += len(s)
		for i := range s {
			f := s[i].Form()
			if f.Load || f.Store {
				addrs = append(addrs, s[i].Addr)
			}
			if f.Branch {
				pcs = append(pcs, s[i].PC)
				taken = append(taken, s[i].Taken)
			}
		}
	}
	fresh := func() *platform.Machine {
		return platform.NewMachine(sim.NewEngine(), "replay", p.w.spec, platform.WithCoreCount(1))
	}

	traces := make([]*cpu.Trace, len(c.streams))
	out["cpu.decode_ns_per_instr"] = p.repeat("replay.cpu.decode", instrs, func() {
		for i, s := range c.streams {
			traces[i] = cpu.NewTrace(s)
		}
	})
	core := fresh().Cores[0]
	out["cpu.replay_ns_per_instr"] = p.repeat("replay.cpu.execute", instrs, func() {
		for _, tr := range traces {
			core.ExecuteTrace(tr)
		}
	})
	h := fresh().Cores[0].Config().DCache
	out["cache.replay_ns_per_access"] = p.repeat("replay.cache.access", len(addrs), func() {
		for _, a := range addrs {
			h.Access(a)
		}
	})
	pred := branch.NewPredictor(p.w.spec.Arch.PredictorEntries)
	out["branch.replay_ns_per_branch"] = p.repeat("replay.branch.access", len(pcs), func() {
		for i, pc := range pcs {
			pred.Access(pc, taken[i])
		}
	})
	ws := cache.NewWorkingSetSim(p.w.maxDWS)
	out["profile.wss_ns_per_access"] = p.repeat("replay.profile.wss", len(addrs), func() {
		for _, a := range addrs {
			ws.Access(a)
		}
	})
	return out
}

// layerMetrics derives the per-layer metrics of a traced iteration from the
// spans of its pipeline, the counters read at phase boundaries and the
// replays. baseS is
// the host CPU seconds of the original's window measured with no profiler
// and no observer. Metrics of a layer that does no work on the workload are 0,
// with the reason in notes.
func (p *pipeline) layerMetrics(it *iteration, pipelineSpans []span, replay map[string]float64, baseS float64, mem runtime.MemStats) (map[string]float64, map[string]string) {
	o, c := &it.Orig, &it.Clone
	m := map[string]float64{}
	for name := range layerUnits {
		m[name] = 0
	}
	delete(m, "trace.overhead_s") // the parent measures it
	notes := map[string]string{}
	for k, v := range replay {
		m[k] = v
	}
	for _, name := range []string{"experiments.deploy", "experiments.warmup", "experiments.shutdown"} {
		m[name+"_s"] = cpuSeconds(pipelineSpans, name)
	}
	m["app.measure_s"] = o.Measure.CPU.Seconds()
	m["synth.measure_s"] = c.Measure.CPU.Seconds()
	measureNs := float64(o.Measure.CPU + c.Measure.CPU)

	var srv cpu.Counters
	srv.Add(o.Server)
	srv.Add(c.Server)
	m["cpu.instrs"] = float64(srv.Instrs)
	m["cpu.kernel_instrs"] = float64(srv.KernelInstrs)
	// Counters are charged for modeled bodies too; only the executed share
	// of them ran through the cpu and cache models.
	executed := 1.0
	if obs, mod := o.Observed+c.Observed, o.Modeled+c.Modeled; obs+mod > 0 {
		executed = float64(obs) / float64(obs+mod)
		if p.w.sampled {
			m["steady.modeled_frac"] = float64(mod) / float64(obs+mod)
		}
	}
	// The replays run user streams only, so the shares are estimated over
	// executed user instructions and their data accesses. The cpu replay
	// includes its cache lookups; the cache share is that part of it.
	user := float64(srv.Instrs-srv.KernelInstrs) * executed
	m["cpu.est_share"] = m["cpu.replay_ns_per_instr"] * user / measureNs
	m["cache.l1i_acc"] = float64(srv.L1iAcc)
	m["cache.l1d_acc"] = float64(srv.L1dAcc)
	m["cache.l2_acc"] = float64(srv.L2Acc)
	m["cache.llc_acc"] = float64(srv.L3Acc)
	m["cache.mem_acc"] = float64(srv.MemAcc)
	if srv.Instrs > 0 {
		m["cache.est_share"] = m["cache.replay_ns_per_access"] * float64(srv.L1dAcc) *
			user / float64(srv.Instrs) / measureNs
	}
	m["branch.branches"] = float64(srv.Branches)

	m["profile.run_s"] = p.profRunS
	m["profile.overhead_s"] = p.profRunS - baseS
	m["profile.finish_s"] = p.finishS
	m["profile.observed_instrs"] = float64(p.profObs)
	m["core.generate_s"] = p.genS
	m["core.topology_s"] = p.topoS
	if p.w.family == singleTier {
		notes["core.topology_s"] = "single-tier app: no traces, no topology to learn"
	}

	if p.w.sampled {
		m["steady.warmup_sim_ms"] = (o.WarmupSimMs + c.WarmupSimMs) / 2
	} else {
		notes["steady.modeled_frac"] = "full execution: no sampler installed"
		notes["steady.warmup_sim_ms"] = "full execution: warmup runs its whole budget"
	}

	events := o.Events + c.Events
	m["sim.events"] = float64(events)
	if events > 0 {
		m["sim.ns_per_event"] = measureNs / float64(events)
	}

	m["kernel.syscalls"] = float64(o.Syscalls + c.Syscalls)
	m["kernel.fsyncs"] = float64(o.Fsyncs + c.Fsyncs)
	m["kernel.pagecache_hits"] = float64(o.PCHits + c.PCHits)
	m["kernel.pagecache_misses"] = float64(o.PCMisses + c.PCMisses)
	if o.Fsyncs+c.Fsyncs == 0 {
		notes["kernel.fsyncs"] = "the workload issues no fsync"
	}
	m["netsim.bytes"] = float64(o.NetBytes + c.NetBytes)

	m["disk.ops"] = float64(o.Disk.ReadOps + o.Disk.WriteOps + c.Disk.ReadOps + c.Disk.WriteOps)
	m["disk.bytes"] = float64(o.Disk.ReadBytes + o.Disk.WriteBytes + c.Disk.ReadBytes + c.Disk.WriteBytes)
	m["disk.busy_frac"] = (busy(o) + busy(c)) / 2
	if m["disk.ops"] == 0 {
		for _, name := range []string{"disk.ops", "disk.bytes", "disk.busy_frac"} {
			notes[name] = "no device I/O in the validation windows: the working set is in the page cache"
		}
	}

	m["dtrace.spans"] = float64(p.dtSpans)
	if p.dtSpans == 0 {
		notes["dtrace.spans"] = "single-tier app: no tracing collector"
	}

	m["loadgen.sent"] = float64(o.Sent + c.Sent)
	m["loadgen.received"] = float64(o.OK + c.OK)
	m["loadgen.failed"] = float64(o.Failed + c.Failed)
	if n := o.OK + o.Failed + c.OK + c.Failed; n > 0 {
		m["loadgen.host_us_per_req"] = measureNs / 1e3 / float64(n)
	}

	m["go.alloc_mb"] = float64(mem.TotalAlloc) / (1 << 20)
	m["go.gc_cycles"] = float64(mem.NumGC)
	return m, notes
}

// busy is the device busy share of a window, averaged over server machines.
func busy(w *window) float64 {
	if w.SimS == 0 || w.Machines == 0 {
		return 0
	}
	return w.Disk.BusyTime.Seconds() / w.SimS / float64(w.Machines)
}
