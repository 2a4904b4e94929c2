package experiments

import (
	"fmt"
	"io"

	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/runner"
	"ditto/internal/stats"
)

// Fig5Row is one (application, load, variant) measurement of Fig. 5: the
// CPU metrics, network/disk bandwidth and latency percentiles the paper
// plots.
type Fig5Row struct {
	App     string
	Load    string
	Variant string // "actual" or "synthetic"
	Metrics profile.TargetMetrics
	NetBW   float64
	DiskBW  float64
	AvgMs   float64
	P95Ms   float64
	P99Ms   float64
	Tput    float64
	TopDown [4]float64
}

// Fig5Result aggregates the figure plus the §6.2.1 average-error table.
type Fig5Result struct {
	Rows      []Fig5Row
	AvgErrors map[string]float64
}

// fig5LevelNames is the canonical sweep order; cell names are static so
// plans can be built (and filtered) before any measurement runs.
var fig5LevelNames = []string{"low", "medium", "high"}

// fig5SocialLoads is the Social Network sweep of Fig. 5.
func fig5SocialLoads(opt Options) map[string]Load {
	return map[string]Load{
		"low":    {QPS: 150, Conns: 12, Mix: SNMix(), Seed: opt.Seed},
		"medium": {QPS: 400, Conns: 12, Mix: SNMix(), Seed: opt.Seed},
		"high":   {QPS: 800, Conns: 12, Mix: SNMix(), Seed: opt.Seed},
	}
}

// fig5SocialTiers is the pair of microservices the paper highlights.
var fig5SocialTiers = []string{"text-service", "social-graph-service"}

// RunFig5 reproduces Fig. 5: CPU performance metrics, network and disk
// bandwidth, and latency under varying load across the six services, for
// the original and its Ditto clone. Every app is profiled only at medium
// load, exactly as in the paper. One prep cell per app probes capacity and
// runs the full cloning pipeline; one cell per app × load × variant then
// measures after the barrier.
func RunFig5(w io.Writer, opt Options) Fig5Result {
	f := newFigure("fig5", opt)
	var cells []cellSpec
	for _, t := range f.appTargets() {
		for _, ln := range fig5LevelNames {
			for _, v := range variants {
				cells = append(cells, cellSpec{key: runner.Key("fig5", t.name, ln, v), variant: v, tgt: t,
					plat: platform.A(), cores: 8, load: ln, win: f.opt.Windows})
			}
		}
	}
	if f.opt.IncludeSocial {
		sn := f.socialTarget(fig5SocialLoads(f.opt))
		for _, ln := range fig5LevelNames {
			for _, v := range variants {
				cells = append(cells, cellSpec{key: runner.Key("fig5", "social", ln, v), variant: v, tgt: sn,
					plat: platform.A(), cores: 8, nodes: snNodes, load: ln, win: socialWindows(f.opt.Windows), tiers: fig5SocialTiers})
			}
		}
	}
	f.p.Barrier()
	addCells(f, cells, func(c cellSpec, out cellOut) []Fig5Row {
		return byTier(c, out, func(name string, r Result) Fig5Row { return fig5Row(name, c.load, c.variant, r) })
	}, emitFig5)

	res := Fig5Result{AvgErrors: map[string]float64{}}
	results := f.run(w, "fig5: app load variant ipc branchmiss l1i l1d l2 llc netBW diskBW avg p95 p99 tput")
	if results == nil {
		return res
	}
	errAgg := map[string]*stats.Recorder{}
	addErr := func(metric string, got, want float64) {
		r := errAgg[metric]
		if r == nil {
			r = &stats.Recorder{}
			errAgg[metric] = r
		}
		r.Add(stats.AbsPctErr(got, want))
	}
	res.Rows = pairRows(results, func(ro, rs Fig5Row) { accumulateErrors(addErr, ro, rs) })
	for metric, rec := range errAgg {
		res.AvgErrors[metric] = rec.Mean()
	}
	if !f.opt.Quiet {
		row(w, "fig5-errors: %s", formatErrors(res.AvgErrors))
	}
	return res
}

func fig5Row(name, load, variant string, r Result) Fig5Row {
	return Fig5Row{App: name, Load: load, Variant: variant, Metrics: r.Metrics,
		NetBW: r.NetBW, DiskBW: r.DiskBW, AvgMs: r.AvgMs, P95Ms: r.P95Ms,
		P99Ms: r.P99Ms, Tput: r.Throughput, TopDown: r.TopDown}
}

func accumulateErrors(addErr func(string, float64, float64), ro, rs Fig5Row) {
	addErr("ipc", rs.Metrics.IPC, ro.Metrics.IPC)
	addErr("branch", rs.Metrics.BranchMiss, ro.Metrics.BranchMiss)
	addErr("l1i", rs.Metrics.L1iMiss, ro.Metrics.L1iMiss)
	addErr("l1d", rs.Metrics.L1dMiss, ro.Metrics.L1dMiss)
	addErr("l2", rs.Metrics.L2Miss, ro.Metrics.L2Miss)
	addErr("llc", rs.Metrics.L3Miss, ro.Metrics.L3Miss)
	if ro.NetBW > 0 {
		addErr("netbw", rs.NetBW/maxF(rs.Tput, 1), ro.NetBW/maxF(ro.Tput, 1))
	}
	if ro.DiskBW > 0 {
		addErr("diskbw", rs.DiskBW/maxF(rs.Tput, 1), ro.DiskBW/maxF(ro.Tput, 1))
	}
}

func emitFig5(w io.Writer, r Fig5Row) {
	row(w, "fig5: %-20s %-6s %-9s ipc=%.3f br=%.4f l1i=%.4f l1d=%.4f l2=%.4f llc=%.4f net=%.3e disk=%.3e avg=%.3f p95=%.3f p99=%.3f tput=%.0f",
		r.App, r.Load, r.Variant, r.Metrics.IPC, r.Metrics.BranchMiss,
		r.Metrics.L1iMiss, r.Metrics.L1dMiss, r.Metrics.L2Miss, r.Metrics.L3Miss,
		r.NetBW, r.DiskBW, r.AvgMs, r.P95Ms, r.P99Ms, r.Tput)
}

func formatErrors(errs map[string]float64) string {
	keys := []string{"ipc", "branch", "l1i", "l1d", "l2", "llc", "netbw", "diskbw"}
	s := ""
	for _, k := range keys {
		if v, ok := errs[k]; ok {
			s += fmt.Sprintf("%s=%.1f%% ", k, v)
		}
	}
	return s
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
