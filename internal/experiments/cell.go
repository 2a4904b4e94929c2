package experiments

import (
	"io"
	"regexp"
	"strings"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/platform"
	"ditto/internal/runner"
	"ditto/internal/sim"
	"ditto/internal/synth"
)

// This file is the one method behind every figure of §6: profile once at
// medium load on Platform A, generate the clone, then run original and clone
// side by side at each load, platform or stressor. A figure declares its
// targets — what is cloned, by prep cells in the plan's first stage — and a
// table of cellSpecs measured after the barrier, plus a row formatter.
// Cells only read Options and prep results frozen by the barrier, and every
// environment is built inside the cell that measures it, so a figure's rows
// and bytes are identical at any -parallel width.

// Options sizes an experiment run: short windows for tests, longer with
// tuning for the benchmark harness.
type Options struct {
	Windows   Windows
	TuneIters int
	Seed      int64
	// Apps filters which single-tier apps run (nil = all four).
	Apps []string
	// IncludeSocial adds the TextService / SocialGraphService columns.
	IncludeSocial bool
	Quiet         bool
	// Parallel bounds the cell worker pool (0 = GOMAXPROCS). Results and
	// output are identical at every width; parallelism only buys wall
	// clock.
	Parallel int
	// IntraParallel sets per-cell (intra-simulation) parallelism: each
	// machine of a cell's cluster gets its own event-queue shard, advanced
	// by up to IntraParallel workers under conservative synchronization
	// (see sim.World). 0 keeps the classic single-queue engine and its
	// exact event order; any width ≥ 1 is byte-identical to any other —
	// width only changes how many OS threads advance shards. When both
	// Parallel and IntraParallel exceed 1 the cell pool is divided by
	// IntraParallel so the total thread budget stays roughly constant.
	IntraParallel int
	// CellFilter restricts which plan cells run (nil = all). Prep cells a
	// surviving cell depends on are retained automatically.
	CellFilter *regexp.Regexp
	// Progress, when set, observes cell completions (e.g. for a stderr
	// ticker). It must not write to the figure writer.
	Progress func(done, total, failed int, r runner.CellResult)
	// Sampled enables steady-state sampled execution (internal/steady):
	// converged request and kernel-stream variants execute a rotating 1-in-N
	// sample and model the rest from the measured distribution. It covers
	// the measurement cells, the capacity probes and the profiling runs of
	// single-tier clone preps. Multi-tier clone preps, the fine-tuner's
	// candidate measurements (SynthRunner), the fault-plane figure (figF)
	// and the storage figure (figS) always run fully executed.
	Sampled bool
}

// DefaultOptions returns bench-grade settings.
func DefaultOptions() Options {
	return Options{Windows: DefaultWindows(), TuneIters: 4, Seed: 1}
}

// withDefaults fills unset windows with DefaultWindows.
func (o Options) withDefaults() Options {
	if o.Windows.Measure == 0 {
		o.Windows = DefaultWindows()
	}
	return o
}

// variants orders the original/clone pair everywhere.
var variants = []string{"actual", "synthetic"}

// seeds is one target's model-seed offsets from Options.Seed. clone seeds
// the cloning pipeline — for a multi-tier target also the original
// deployment it profiles and measures — and synth the synthetic deployment.
// app seeds an original the figure builds itself (the standard apps take
// theirs from appCases).
type seeds struct{ clone, synth, app int64 }

// figSeeds is the per-figure seed-offset table. The offsets are the ones the
// figures have always used, kept so that output stays byte-identical;
// deriving seeds from cell names instead would re-baseline every figure.
var figSeeds = map[string]seeds{
	"fig5":        {clone: 17, synth: 31},
	"fig5/social": {clone: 5, synth: 6},
	"fig6":        {clone: 11, synth: 12},
	"fig7":        {clone: 23, synth: 29},
	"fig7/social": {clone: 53, synth: 54},
	"fig8":        {clone: 41, synth: 43},
	"fig8/social": {clone: 47, synth: 48},
	"fig9":        {clone: 60, synth: 61},
	"fig10":       {clone: 71, synth: 73},
	"fig11":       {clone: 83, synth: 85, app: 81},
	"figF":        {clone: 11, synth: 12},
	"figS":        {clone: 17, synth: 18},
}

// snNodes is the Social Network's machine count: two 8-core Platform A
// nodes, the paper's reference deployment.
const snNodes = 2

// appCase is one standalone application with its builder and the client
// generator style the paper uses for it (open loop for Memcached/NGINX,
// closed loop YCSB for MongoDB/Redis).
type appCase struct {
	name   string
	build  AppBuilder
	open   bool
	port   int
	maxDWS int
}

func appCases(seed int64) []appCase {
	return []appCase{
		{name: "memcached", open: true, port: 11211, maxDWS: 128 << 20,
			build: func(m *platform.Machine) app.App { return app.NewMemcached(m, 11211, seed+1) }},
		{name: "nginx", open: true, port: 80, maxDWS: 32 << 20,
			build: func(m *platform.Machine) app.App { return app.NewNginx(m, 80, seed+2) }},
		{name: "mongodb", open: false, port: 27017, maxDWS: 256 << 20,
			build: func(m *platform.Machine) app.App { return app.NewMongoDB(m, 27017, seed+3) }},
		{name: "redis", open: false, port: 6379, maxDWS: 128 << 20,
			build: func(m *platform.Machine) app.App { return app.NewRedis(m, 6379, seed+4) }},
	}
}

// LoadLevel names one point of an app's low/medium/high load sweep.
type LoadLevel struct {
	Name string
	Load Load
}

// loadLevels builds the low/medium/high loads for one app: fractions of
// probed capacity for open-loop clients, connection counts for closed-loop
// ones.
func loadLevels(c appCase, capacity float64, seed int64) []LoadLevel {
	if c.open {
		return []LoadLevel{
			{"low", Load{QPS: 0.25 * capacity, Conns: 16, Seed: seed}},
			{"medium", Load{QPS: 0.5 * capacity, Conns: 16, Seed: seed}},
			{"high", Load{QPS: 0.8 * capacity, Conns: 16, Seed: seed}},
		}
	}
	return []LoadLevel{
		{"low", Load{Conns: 2, Seed: seed}},
		{"medium", Load{Conns: 8, Seed: seed}},
		{"high", Load{Conns: 24, Seed: seed}},
	}
}

// mediumOf returns the medium (profiling) load.
func mediumOf(levels []LoadLevel) Load {
	return levels[1].Load
}

// target is one cloneable workload of a figure. Its prep cell fills in the
// clone, and any loads that derive from a capacity probe, before the
// barrier; measurement cells only read it.
type target struct {
	name  string
	app   *appCase // single-tier original; nil for a multi-tier target
	fs    string   // DittoFS content backend; "" for the Social Network
	seeds seeds
	loads map[string]Load
	spec  *core.SynthSpec // single-tier clone
	clone *SNClone        // multi-tier clone
}

// cellSpec declares one measurement cell: which variant of which target
// runs on what platform, under which load, for how long.
type cellSpec struct {
	key     string
	variant string // "actual" or "synthetic"
	tgt     *target
	plat    platform.Spec
	cores   int               // cores of every server machine
	opts    []platform.Option // further server-machine options (single tier)
	nodes   int               // Social Network machines
	load    string            // key into tgt.loads
	win     Windows
	tiers   []string // multi-tier tiers measured one by one
	full    bool     // always fully executed, even when Options.Sampled
	// extra starts co-located load after the deployment (fig10's
	// stressors).
	extra func(env *Env)
	// measure replaces the standard measurement (Measure or MeasureSN);
	// its value becomes cellOut.point.
	measure func(d *Deployment, load Load, win Windows) any
}

// cellOut is what one cell measured.
type cellOut struct {
	Result                   // the single tier, or end to end
	tiers  map[string]Result // per tier, for cellSpec.tiers
	point  any               // cellSpec.measure's value
}

// runCell is the one cell runner. It builds the cell's environment, with
// the intra-cell width and sampling taken from o, deploys the actual app or
// the clone, measures it, and shuts the environment down. Every state it
// touches is freshly constructed, which is what makes cells safe to run
// concurrently. Under sampling the warmup window doubles as the detector's
// convergence run (a variant only starts modeling after Window×Stable full
// executions), so the measured window sees converged sampling.
func (o Options) runCell(c cellSpec) cellOut {
	t, load := c.tgt, c.tgt.loads[c.load]
	synthetic := c.variant == "synthetic"
	seed := o.Seed + t.seeds.clone
	if synthetic {
		seed = o.Seed + t.seeds.synth
	}
	sampled := o.Sampled && !c.full
	var d *Deployment
	switch {
	case t.app != nil:
		env := NewEnvW(o.IntraParallel, c.plat, append([]platform.Option{platform.WithCoreCount(c.cores)}, c.opts...)...)
		if sampled {
			env.EnableSampling(load.Seed)
		}
		var a app.App
		if synthetic {
			a = synth.NewServer(env.Server, t.app.port, t.spec, seed)
		} else {
			a = t.app.build(env.Server)
		}
		a.Start()
		d = deployApp(env, a)
	case t.fs != "" && synthetic:
		d = NewSynthFS(t.clone, c.plat, seed, o.IntraParallel)
	case t.fs != "":
		d = NewOriginalFS(t.fs, c.plat, seed, o.IntraParallel)
	case synthetic:
		d = NewSynthSN(t.clone, c.plat, c.nodes, c.cores, seed, o.IntraParallel)
	default:
		d = NewOriginalSN(c.plat, c.nodes, c.cores, seed, o.IntraParallel)
	}
	if sampled && d.app == nil {
		d.Env.EnableSampling(load.Seed)
	}
	if c.extra != nil {
		c.extra(d.Env)
	}
	var out cellOut
	switch {
	case c.measure != nil:
		out.point = c.measure(d, load, c.win)
	case d.app != nil:
		out.Result = Measure(d.Env, d.app, load, c.win)
	default:
		out.Result, out.tiers = MeasureSN(d, load, c.win, c.tiers)
	}
	d.Env.Shutdown()
	return out
}

// figure is one figure's plan under construction.
type figure struct {
	name string
	opt  Options // with default windows
	p    *runner.Plan
}

func newFigure(name string, opt Options) *figure {
	return &figure{name: name, opt: opt.withDefaults(), p: runner.NewPlan()}
}

// newTarget returns a target seeded from the given row of figSeeds.
func newTarget(name, seedKey string, loads map[string]Load) *target {
	return &target{name: name, seeds: figSeeds[seedKey], loads: loads}
}

// socialTarget adds the prep cell that clones the Social Network of the
// figure, profiled at its "medium" load over the social windows.
func (f *figure) socialTarget(loads map[string]Load) *target {
	return f.multiTarget(runner.Key(f.name, "social", "clone"),
		newTarget("social", f.name+"/social", loads), "medium", socialWindows(f.opt.Windows))
}

// appTargets adds one clone prep cell per single-tier app that passes the
// Options.Apps filter.
func (f *figure) appTargets() []*target {
	var ts []*target
	for _, c := range appCases(f.opt.Seed) {
		if len(f.opt.Apps) > 0 && !contains(f.opt.Apps, c.name) {
			continue
		}
		ts = append(ts, f.appTarget(runner.Key(f.name, c.name, "clone"), c))
	}
	return ts
}

// appTarget adds the prep cell that clones one single-tier app. For an
// open-loop app it first probes capacity; it then derives the low, medium,
// high and cross-platform loads, and clones the app at medium load.
func (f *figure) appTarget(key string, c appCase) *target {
	t := newTarget(c.name, f.name, map[string]Load{})
	t.app = &c
	f.p.AddPrep(key, func(io.Writer) (any, error) {
		o := f.opt
		var capacity float64
		if c.open {
			capacity = o.probeCapacity(t)
		}
		levels := loadLevels(c, capacity, o.Seed)
		for _, lv := range levels {
			t.loads[lv.Name] = lv.Load
		}
		// Fig. 7 keeps open-loop load sustainable on the weakest platform.
		cross := mediumOf(levels)
		if c.open {
			cross.QPS = capacity * 0.3
		}
		t.loads["cross"] = cross
		_, t.spec = cloneApp(c.build, mediumOf(levels), o.Windows, c.maxDWS, o.TuneIters, o.Seed+t.seeds.clone, o.Sampled)
		return nil, nil
	})
	return t
}

// probeCapacity measures closed-loop saturation throughput of t's original
// on the classic engine, so open-loop load levels can be placed relative to
// it. It records the probe's load on t as "probe".
func (o Options) probeCapacity(t *target) float64 {
	// The probe saturates the server, the most expensive regime to
	// simulate; a short dedicated window is plenty for a throughput
	// estimate.
	win := Windows{Warmup: 8 * sim.Millisecond, Measure: 25 * sim.Millisecond}
	if o.Windows.Measure < win.Measure {
		win = o.Windows
	}
	t.loads["probe"] = Load{Conns: 32, Seed: o.Seed}
	o.IntraParallel = 0
	return o.runCell(cellSpec{variant: "actual", tgt: t, plat: platform.A(), cores: 8, load: "probe", win: win}).Throughput
}

// multiTarget adds the prep cell that clones a multi-tier target — the
// Social Network on its reference deployment, or one DittoFS backend —
// profiled under the named load.
func (f *figure) multiTarget(key string, t *target, profLoad string, win Windows) *target {
	f.p.AddPrep(key, func(io.Writer) (any, error) {
		seed := f.opt.Seed + t.seeds.clone
		if t.fs != "" {
			t.clone = CloneFS(t.fs, fsSpec(), t.loads[profLoad], win, seed)
		} else {
			t.clone = CloneSN(platform.A(), snNodes, 8, t.loads[profLoad], win, seed)
		}
		return nil, nil
	})
	return t
}

// addCells adds one measurement cell per spec. rows turns what the cell
// measured into figure rows, which the cell prints with format.
func addCells[R any](f *figure, cells []cellSpec, rows func(cellSpec, cellOut) []R, format func(io.Writer, R)) {
	for _, c := range cells {
		addCell(f, c.key, func() []R { return rows(c, f.opt.runCell(c)) }, format)
	}
}

// addCell adds one measurement cell that prints and returns the rows
// measure produces.
func addCell[R any](f *figure, key string, measure func() []R, format func(io.Writer, R)) {
	f.p.Add(key, func(w io.Writer) (any, error) {
		rows := measure()
		if !f.opt.Quiet {
			for _, r := range rows {
				format(w, r)
			}
		}
		return rows, nil
	})
}

// run applies the option's cell filter, executes the plan and reports
// failed cells on w. It returns the per-cell results in plan order, or nil
// when the filter left nothing to run (callers then skip the figure
// entirely, header included).
func (f *figure) run(w io.Writer, head string) []runner.CellResult {
	opt := f.opt
	if opt.CellFilter != nil && f.p.Filter(opt.CellFilter) == 0 {
		return nil
	}
	if !opt.Quiet {
		row(w, "# %s", head)
	}
	par := opt.Parallel
	if opt.IntraParallel > 1 {
		// Each cell now spins up to IntraParallel shard workers of its own;
		// shrink the cell pool so the total thread budget stays roughly at
		// the requested -parallel width.
		par = max(runner.EffectiveWidth(opt.Parallel)/opt.IntraParallel, 1)
	}
	results := runner.Run(w, f.p, runner.Options{Parallel: par, Progress: opt.Progress})
	for _, r := range results {
		if r.Err != nil {
			row(w, "# cell %s failed: %v", r.Name, r.Err)
		}
	}
	return results
}

// byTier turns a cell's measurement into one row per measured tier, in
// cellSpec.tiers order — or a single row named after a single-tier target.
func byTier[R any](c cellSpec, out cellOut, row func(name string, r Result) R) []R {
	if out.tiers == nil {
		return []R{row(c.tgt.name, out.Result)}
	}
	var rows []R
	for _, tn := range c.tiers {
		rows = append(rows, row(tn, out.tiers[tn]))
	}
	return rows
}

// rowsOf flattens the rows of every cell that ran, in plan order.
func rowsOf[R any](results []runner.CellResult) []R {
	var out []R
	for _, r := range results {
		if rows, ok := r.Value.([]R); ok {
			out = append(out, rows...)
		}
	}
	return out
}

// pairRows collects the rows of every (actual, synthetic) cell pair tier
// by tier — both variants of a tier side by side — and calls both, when
// set, for every tier measured in both variants. The pair's cells are
// adjacent in plan order: every table varies the variant innermost.
func pairRows[R any](results []runner.CellResult, both func(a, s R)) []R {
	var out []R
	for i := 0; i+1 < len(results); i++ {
		if !strings.HasSuffix(results[i].Name, "/actual") {
			continue
		}
		a, _ := results[i].Value.([]R)
		s, _ := results[i+1].Value.([]R)
		for j := 0; j < max(len(a), len(s)); j++ {
			if j < len(a) {
				out = append(out, a[j])
			}
			if j < len(s) {
				out = append(out, s[j])
			}
			if j < len(a) && j < len(s) && both != nil {
				both(a[j], s[j])
			}
		}
	}
	return out
}
