package experiments

import (
	"io"

	"ditto/internal/core"
	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/runner"
)

// Fig9Row is one decomposition stage's measurement for MongoDB: how IPC,
// instruction count, cycles and p99 evolve as Ditto's features are enabled
// one by one (Fig. 9).
type Fig9Row struct {
	Stage  string
	IPC    float64
	Instrs float64 // per request
	Cycles float64 // per request
	P99Ms  float64
}

// Fig9Result carries the staged rows plus the original's target line.
type Fig9Result struct {
	Target Fig9Row
	Rows   []Fig9Row
}

// RunFig9 reproduces Fig. 9: the accuracy decomposition on MongoDB. Stages
// A–H are generated with increasing sophistication; stage I adds fine
// tuning. The profiling run is the single prep cell; the target line and
// every stage then measure as independent cells.
func RunFig9(w io.Writer, opt Options) Fig9Result {
	f := newFigure("fig9", opt)
	t := newTarget("mongodb", "fig9", map[string]Load{"": {Conns: 8, Seed: f.opt.Seed}})
	c := appCases(f.opt.Seed)[2] // mongodb
	t.app = &c
	cell := func(v string) cellSpec {
		return cellSpec{variant: v, tgt: t, plat: platform.A(), cores: 8, win: f.opt.Windows}
	}
	emit := func(w io.Writer, fr Fig9Row) {
		row(w, "fig9: %-11s ipc=%.3f instrs/req=%.0f cycles/req=%.0f p99=%.3f",
			fr.Stage, fr.IPC, fr.Instrs, fr.Cycles, fr.P99Ms)
	}
	var prof *profile.AppProfile
	f.p.AddPrep(runner.Key("fig9", "profile"), func(io.Writer) (any, error) {
		prof = profileRun(c.build, t.loads[""], f.opt.Windows, c.maxDWS, f.opt.Sampled)
		return nil, nil
	})
	addCell(f, runner.Key("fig9", "target"), func() []Fig9Row {
		return []Fig9Row{fig9Of("target", f.opt.runCell(cell("actual")).Result, f.opt.Windows)}
	}, emit)
	f.p.Barrier()

	for st := core.StageSkeleton; st <= core.StageTune; st++ {
		addCell(f, runner.Key("fig9", "stage", st.String()), func() []Fig9Row {
			seed := f.opt.Seed + t.seeds.clone
			stage := *t
			if st == core.StageTune {
				iters := f.opt.TuneIters
				if iters <= 0 {
					iters = 3
				}
				stage.spec, _ = core.FineTune(prof, seed, SynthRunner(t.loads[""], f.opt.Windows), iters, 0.05)
			} else {
				stage.spec = core.GenerateStaged(prof, st, seed)
			}
			cs := cell("synthetic")
			cs.tgt = &stage
			return []Fig9Row{fig9Of(st.String(), f.opt.runCell(cs).Result, f.opt.Windows)}
		}, emit)
	}

	var res Fig9Result
	for _, r := range rowsOf[Fig9Row](f.run(w, "fig9: stage ipc instrs cycles p99 (target from actual MongoDB)")) {
		if r.Stage == "target" {
			res.Target = r
		} else {
			res.Rows = append(res.Rows, r)
		}
	}
	return res
}

// fig9Of normalizes a measurement to per-request quantities: the staged
// clones serve very different request counts under a closed loop, so totals
// are not comparable but per-request instructions and cycles are.
func fig9Of(name string, r Result, win Windows) Fig9Row {
	reqs := r.Throughput * win.Measure.Seconds()
	if reqs < 1 {
		reqs = 1
	}
	return Fig9Row{Stage: name, IPC: r.Metrics.IPC,
		Instrs: float64(r.Counters.Instrs) / reqs,
		Cycles: r.Counters.Cycles / reqs, P99Ms: r.P99Ms}
}
