package experiments

import (
	"io"

	"ditto/internal/platform"
	"ditto/internal/runner"
)

// Fig8Row is one app × variant top-down CPI breakdown (retiring /
// front-end / bad speculation / back-end), scaled to CPI as in Fig. 8.
type Fig8Row struct {
	App      string
	Variant  string
	CPI      float64
	Retiring float64
	Frontend float64
	BadSpec  float64
	Backend  float64
}

// Fig8Result is the Fig. 8 dataset.
type Fig8Result struct {
	Rows []Fig8Row
}

// fig8Row converts a measurement's top-down fractions to CPI components.
func fig8Row(name, variant string, r Result) Fig8Row {
	cpi := r.Counters.CPI()
	return Fig8Row{App: name, Variant: variant, CPI: cpi,
		Retiring: r.TopDown[0] * cpi, Frontend: r.TopDown[1] * cpi,
		BadSpec: r.TopDown[2] * cpi, Backend: r.TopDown[3] * cpi}
}

// RunFig8 reproduces Fig. 8: the cycles-per-instruction top-down analysis
// of original vs synthetic at medium load for the four standalone apps plus
// the two highlighted Social Network tiers, as a cell plan (per-app clone
// prep, then one cell per app × variant).
func RunFig8(w io.Writer, opt Options) Fig8Result {
	f := newFigure("fig8", opt)
	var cells []cellSpec
	for _, t := range f.appTargets() {
		for _, v := range variants {
			cells = append(cells, cellSpec{key: runner.Key("fig8", t.name, v), variant: v, tgt: t,
				plat: platform.A(), cores: 8, load: "medium", win: f.opt.Windows})
		}
	}
	if f.opt.IncludeSocial {
		sn := f.socialTarget(map[string]Load{"medium": {QPS: 400, Conns: 12, Mix: SNMix(), Seed: f.opt.Seed}})
		for _, v := range variants {
			cells = append(cells, cellSpec{key: runner.Key("fig8", "social", v), variant: v, tgt: sn, plat: platform.A(),
				cores: 8, nodes: snNodes, load: "medium", win: socialWindows(f.opt.Windows), tiers: fig5SocialTiers})
		}
	}
	f.p.Barrier()
	addCells(f, cells, func(c cellSpec, out cellOut) []Fig8Row {
		return byTier(c, out, func(name string, r Result) Fig8Row { return fig8Row(name, c.variant, r) })
	}, func(w io.Writer, fr Fig8Row) {
		row(w, "fig8: %-20s %-9s cpi=%.3f ret=%.3f fe=%.3f bad=%.3f be=%.3f",
			fr.App, fr.Variant, fr.CPI, fr.Retiring, fr.Frontend, fr.BadSpec, fr.Backend)
	})
	results := f.run(w, "fig8: app variant cpi retiring frontend badspec backend")
	// The paper's ordering is tier-major: both variants of TextService,
	// then both of SocialGraphService.
	return Fig8Result{Rows: pairRows[Fig8Row](results, nil)}
}
