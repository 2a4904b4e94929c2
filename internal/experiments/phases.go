package experiments

import (
	"io"

	"ditto/internal/platform"
	"ditto/internal/sim"
	"ditto/internal/stats"
)

// PhaseScan reproduces the §7.3 check: sample an application's IPC over
// consecutive sub-windows under steady load and quantify phase behaviour as
// the coefficient of variation. The paper reports no regular program phases
// at second-level granularity for these services; the same holds here at
// sub-window granularity because thousands of concurrent requests average
// any per-request phases out.
type PhaseScan struct {
	Samples []float64 // per-sub-window IPC
	Mean    float64
	CoV     float64 // stddev / mean
}

// RunPhaseScan measures an app's IPC time series: windows sub-windows of
// the given width each, after warmup.
func RunPhaseScan(w io.Writer, opt Options, build AppBuilder, load Load, windows int) PhaseScan {
	opt = opt.withDefaults()
	if windows <= 0 {
		windows = 10
	}
	opt.IntraParallel = 0 // the scan has always run on the classic engine
	t := &target{app: &appCase{build: build}, loads: map[string]Load{"": load}}
	var name string
	out := opt.runCell(cellSpec{variant: "actual", tgt: t, plat: platform.A(), cores: 8, win: opt.Windows, full: true,
		measure: func(d *Deployment, load Load, win Windows) any {
			d.startClient(load)
			d.Env.RunFor(win.Warmup)
			var scan PhaseScan
			var agg stats.Running
			prev := d.app.Proc().Counters
			for i := 0; i < windows; i++ {
				d.Env.RunFor(win.Measure / sim.Time(windows))
				now := d.app.Proc().Counters
				delta := deltaCounters(now, prev)
				prev = now
				ipc := delta.IPC()
				scan.Samples = append(scan.Samples, ipc)
				agg.Add(ipc)
			}
			scan.Mean = agg.Mean()
			if scan.Mean > 0 {
				scan.CoV = agg.StdDev() / scan.Mean
			}
			name = d.app.Name()
			return scan
		}})
	scan := out.point.(PhaseScan)
	if !opt.Quiet {
		row(w, "phases: app=%s mean-ipc=%.3f cov=%.3f samples=%d",
			name, scan.Mean, scan.CoV, len(scan.Samples))
	}
	return scan
}
