package experiments

import (
	"fmt"
	"io"

	"ditto/internal/app"
	"ditto/internal/platform"
	"ditto/internal/runner"
)

// Fig11Cell is one (cores, frequency) cell of the power-management heatmap:
// p99 latency and whether the 1ms QoS holds.
type Fig11Cell struct {
	Cores   int
	FreqGHz float64
	Variant string
	P99Ms   float64
	MeetQoS bool
}

// Fig11Result is the Fig. 11 heatmap for actual and synthetic Memcached.
type Fig11Result struct {
	QoSMs float64
	QPS   float64
	Cells []Fig11Cell
}

// RunFig11 reproduces Fig. 11: p99 latency of Memcached (deployed with a
// 16-worker pool so core scaling matters) across core counts and CPU
// frequencies, with a 1ms QoS, actual vs synthetic. The heatmap is the
// repository's widest plan — every (cores, freq, variant) point is an
// independent cell, so it scales across all available host cores.
func RunFig11(w io.Writer, opt Options, cores []int, freqs []float64) Fig11Result {
	f := newFigure("fig11", opt)
	if len(cores) == 0 {
		cores = []int{4, 6, 8, 10, 12, 14, 16}
	}
	if len(freqs) == 0 {
		freqs = []float64{1.1, 1.3, 1.5, 1.7, 1.9, 2.1}
	}
	const qosMs = 1.0

	t := newTarget("memcached", "fig11", map[string]Load{"capacity": {Conns: 32, Seed: f.opt.Seed}})
	appSeed := f.opt.Seed + t.seeds.app
	c := appCase{name: t.name, open: true, port: 11211, maxDWS: 128 << 20,
		build: func(m *platform.Machine) app.App { return app.NewMemcachedN(m, 11211, 16, appSeed) }}
	t.app = &c
	var qps float64
	f.p.AddPrep(runner.Key("fig11", "clone"), func(io.Writer) (any, error) {
		// Capacity at the best configuration sets the fixed offered load.
		capRes := f.opt.runCell(cellSpec{variant: "actual", tgt: t, plat: platform.A(), cores: 16,
			opts: []platform.Option{platform.WithFreqGHz(2.1)}, load: "capacity", win: f.opt.Windows})
		qps = capRes.Throughput * 0.45
		t.loads["qos"] = Load{QPS: qps, Conns: 16, Seed: f.opt.Seed}
		_, t.spec = cloneApp(c.build, t.loads["qos"], f.opt.Windows, c.maxDWS, f.opt.TuneIters, f.opt.Seed+t.seeds.clone, f.opt.Sampled)
		return nil, nil
	})
	f.p.Barrier()

	emit := func(w io.Writer, cell Fig11Cell) {
		mark := "ok"
		if !cell.MeetQoS {
			mark = "X"
		}
		row(w, "fig11: cores=%-2d freq=%.1f %-9s p99=%.3f %s",
			cell.Cores, cell.FreqGHz, cell.Variant, cell.P99Ms, mark)
	}
	for _, nc := range cores {
		for _, fr := range freqs {
			var cells []cellSpec
			for _, v := range variants {
				cells = append(cells, cellSpec{key: runner.Key("fig11", fmt.Sprintf("c%d", nc), fmt.Sprintf("f%.1f", fr), v),
					variant: v, tgt: t, plat: platform.A(), cores: nc, opts: []platform.Option{platform.WithFreqGHz(fr)},
					load: "qos", win: f.opt.Windows})
			}
			addCells(f, cells, func(c cellSpec, out cellOut) []Fig11Cell {
				return []Fig11Cell{{Cores: nc, FreqGHz: fr, Variant: c.variant,
					P99Ms: out.P99Ms, MeetQoS: out.P99Ms <= qosMs && out.P99Ms > 0}}
			}, emit)
		}
	}

	res := Fig11Result{QoSMs: qosMs}
	results := f.run(w, "fig11: cores freq variant p99 meetsQoS (QoS=1ms)")
	if results == nil {
		return res
	}
	res.QPS = qps
	res.Cells = rowsOf[Fig11Cell](results)
	return res
}
