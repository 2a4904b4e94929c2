package experiments

import (
	"io"

	"ditto/internal/interfere"
	"ditto/internal/platform"
	"ditto/internal/runner"
)

// Fig10Row is one interference scenario's measurement for NGINX (Fig. 10):
// IPC, p99 latency and per-level cache miss rates, actual vs synthetic.
type Fig10Row struct {
	Scenario string
	Variant  string
	IPC      float64
	P99Ms    float64
	L1iMiss  float64
	L1dMiss  float64
	L2Miss   float64
	LLCMiss  float64
}

// Fig10Result is the interference study.
type Fig10Result struct {
	Rows []Fig10Row
}

// fig10Scenario describes one stressor configuration.
type fig10Scenario struct {
	name string
	opts []platform.Option // platform knobs (HT-sibling stressors)
	// stress starts a co-located stressor after the app: an LLC hammer
	// (iBench) or a competing network flow (iperf3).
	stress func(env *Env)
}

// fig10Scenarios are the stressor configurations of Fig. 10.
var fig10Scenarios = []fig10Scenario{
	{name: "orig"},
	{name: "HT", opts: []platform.Option{platform.WithSMTFactor(0.5)}},
	{name: "L1d", opts: []platform.Option{platform.WithSMTFactor(0.8),
		platform.WithPrivateCacheScale(0.5, 1)}},
	{name: "L2", opts: []platform.Option{platform.WithSMTFactor(0.8),
		platform.WithPrivateCacheScale(1, 0.5)}},
	{name: "LLC", stress: func(env *Env) { interfere.StartLLCStressor(env.Server, 4, platform.A().LLCKB<<10) }},
	{name: "Net", stress: func(env *Env) { interfere.StartNetStressor(env.Server, env.Client, 5201, 1<<20) }},
}

// RunFig10 reproduces Fig. 10: NGINX under hyperthread, L1d, L2, LLC and
// network-bandwidth interference, original vs its clone. The clone is
// produced from an interference-free profile — the paper's point is that it
// inherits interference sensitivity without being profiled under it. One
// prep cell clones NGINX; each scenario × variant is an independent cell.
// Under Options.Sampled the rotating executed sample still sees the
// stressors' cache pollution, so the drawn distribution tracks the
// interfered regime.
func RunFig10(w io.Writer, opt Options) Fig10Result {
	f := newFigure("fig10", opt)
	t := f.appTarget(runner.Key("fig10", "clone"), appCases(f.opt.Seed)[1]) // nginx
	f.p.Barrier()
	emit := func(w io.Writer, fr Fig10Row) {
		row(w, "fig10: %-5s %-9s ipc=%.3f p99=%.3f l1i=%.4f l1d=%.4f l2=%.4f llc=%.4f",
			fr.Scenario, fr.Variant, fr.IPC, fr.P99Ms, fr.L1iMiss, fr.L1dMiss, fr.L2Miss, fr.LLCMiss)
	}
	for _, sc := range fig10Scenarios {
		var cells []cellSpec
		for _, v := range variants {
			cells = append(cells, cellSpec{key: runner.Key("fig10", sc.name, v), variant: v, tgt: t,
				plat: platform.A(), cores: 6, opts: sc.opts, load: "medium", win: f.opt.Windows, extra: sc.stress})
		}
		addCells(f, cells, func(c cellSpec, out cellOut) []Fig10Row {
			r := out.Result
			return []Fig10Row{{Scenario: sc.name, Variant: c.variant, IPC: r.Metrics.IPC, P99Ms: r.P99Ms,
				L1iMiss: r.Metrics.L1iMiss, L1dMiss: r.Metrics.L1dMiss, L2Miss: r.Metrics.L2Miss, LLCMiss: r.Metrics.L3Miss}}
		}, emit)
	}
	return Fig10Result{Rows: rowsOf[Fig10Row](f.run(w, "fig10: scenario variant ipc p99 l1i l1d l2 llc"))}
}
