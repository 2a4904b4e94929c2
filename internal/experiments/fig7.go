package experiments

import (
	"io"

	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/runner"
)

// Fig7Row is one (app, platform, variant) measurement of the
// cross-platform validation: profiles are collected on Platform A only and
// the same synthetic binary runs unmodified on B and C, as §6.2.2 requires.
type Fig7Row struct {
	App      string
	Platform string
	Variant  string
	Metrics  profile.TargetMetrics
	NetBW    float64
	DiskBW   float64
	AvgMs    float64
	P99Ms    float64
}

// Fig7Result is the Fig. 7 table.
type Fig7Result struct {
	Rows []Fig7Row
}

// fig7CoreCount picks a comparable core allocation per platform.
func fig7CoreCount(spec platform.Spec) int {
	if spec.Cores < 8 {
		return spec.Cores
	}
	return 8
}

// fig7SocialDeploys are the two Social Network deployments the paper
// highlights: the two-node Platform A reference and the small-scale
// Platform C where every tier is colocated on one four-core box (high LLC
// interference).
var fig7SocialDeploys = []struct {
	spec  platform.Spec
	nodes int
	cores int
}{
	{platform.A(), 2, 8},
	{platform.C(), 1, 4},
}

// RunFig7 reproduces Fig. 7: each app is cloned from a Platform A profile,
// then original and synthetic run side by side on Platforms A, B and C
// without reprofiling. Prep cells clone per app; each (platform, variant)
// pair is an independent measurement cell.
func RunFig7(w io.Writer, opt Options) Fig7Result {
	f := newFigure("fig7", opt)
	var cells []cellSpec
	for _, t := range f.appTargets() {
		for _, plat := range []platform.Spec{platform.A(), platform.B(), platform.C()} {
			for _, v := range variants {
				cells = append(cells, cellSpec{key: runner.Key("fig7", t.name, plat.Name, v), variant: v, tgt: t,
					plat: plat, cores: fig7CoreCount(plat), load: "cross", win: f.opt.Windows})
			}
		}
	}
	if f.opt.IncludeSocial {
		sn := f.socialTarget(map[string]Load{"medium": {QPS: 300, Conns: 12, Mix: SNMix(), Seed: f.opt.Seed}})
		for _, d := range fig7SocialDeploys {
			for _, v := range variants {
				cells = append(cells, cellSpec{key: runner.Key("fig7", "social", d.spec.Name, v), variant: v, tgt: sn,
					plat: d.spec, cores: d.cores, nodes: d.nodes, load: "medium", win: socialWindows(f.opt.Windows), tiers: fig5SocialTiers})
			}
		}
	}
	f.p.Barrier()
	addCells(f, cells, func(c cellSpec, out cellOut) []Fig7Row {
		return byTier(c, out, func(name string, r Result) Fig7Row {
			fr := Fig7Row{App: name, Platform: c.plat.Name, Variant: c.variant, Metrics: r.Metrics, NetBW: r.NetBW, DiskBW: r.DiskBW}
			if out.tiers == nil { // per-tier rows leave latency out
				fr.AvgMs, fr.P99Ms = r.AvgMs, r.P99Ms
			}
			return fr
		})
	}, emitFig7)
	results := f.run(w, "fig7: app platform variant ipc branchmiss l1i l1d l2 llc netBW diskBW avg p99")
	return Fig7Result{Rows: rowsOf[Fig7Row](results)}
}

func emitFig7(w io.Writer, fr Fig7Row) {
	row(w, "fig7: %-20s %-2s %-9s ipc=%.3f br=%.4f l1i=%.4f l1d=%.4f l2=%.4f llc=%.4f net=%.3e disk=%.3e avg=%.3f p99=%.3f",
		fr.App, fr.Platform, fr.Variant, fr.Metrics.IPC, fr.Metrics.BranchMiss,
		fr.Metrics.L1iMiss, fr.Metrics.L1dMiss, fr.Metrics.L2Miss,
		fr.Metrics.L3Miss, fr.NetBW, fr.DiskBW, fr.AvgMs, fr.P99Ms)
}
