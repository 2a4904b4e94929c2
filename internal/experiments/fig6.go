package experiments

import (
	"fmt"
	"io"

	"ditto/internal/platform"
	"ditto/internal/runner"
)

// Fig6Point is one QPS level of the Social Network end-to-end latency
// comparison, original vs fully synthetic (every tier replaced).
type Fig6Point struct {
	QPS     float64
	Variant string
	P50Ms   float64
	P95Ms   float64
	P99Ms   float64
	Tput    float64
}

// Fig6Result is the Fig. 6 series.
type Fig6Result struct {
	Points []Fig6Point
}

// RunFig6 reproduces Fig. 6: end-to-end latency of the original Social
// Network versus the deployment where every individual microservice is
// replaced by its Ditto clone, across a QPS sweep. One prep cell clones the
// deployment; each (qps, variant) point is then an independent cell.
func RunFig6(w io.Writer, opt Options, qpsLevels []float64) Fig6Result {
	f := newFigure("fig6", opt)
	win := socialWindows(f.opt.Windows)
	if len(qpsLevels) == 0 {
		qpsLevels = []float64{200, 500, 1000, 1500, 2000}
	}
	sn := newTarget("social", "fig6", map[string]Load{})
	names := make([]string, len(qpsLevels))
	for i, qps := range qpsLevels {
		names[i] = fmt.Sprintf("qps%.0f", qps)
		sn.loads[names[i]] = Load{QPS: qps, Conns: 16, Mix: SNMix(), Seed: f.opt.Seed}
	}
	f.multiTarget(runner.Key("fig6", "clone"), sn, names[len(names)/2], win)
	f.p.Barrier()
	var cells []cellSpec
	for _, n := range names {
		for _, v := range variants {
			cells = append(cells, cellSpec{key: runner.Key("fig6", n, v), variant: v, tgt: sn,
				plat: platform.A(), cores: 8, nodes: snNodes, load: n, win: win})
		}
	}
	addCells(f, cells, func(c cellSpec, out cellOut) []Fig6Point {
		return []Fig6Point{{QPS: sn.loads[c.load].QPS, Variant: c.variant, P50Ms: out.P50Ms,
			P95Ms: out.P95Ms, P99Ms: out.P99Ms, Tput: out.Throughput}}
	}, func(w io.Writer, pt Fig6Point) {
		row(w, "fig6: qps=%-6.0f %-9s p50=%.3f p95=%.3f p99=%.3f tput=%.0f",
			pt.QPS, pt.Variant, pt.P50Ms, pt.P95Ms, pt.P99Ms, pt.Tput)
	})
	return Fig6Result{Points: rowsOf[Fig6Point](f.run(w, "fig6: qps variant p50 p95 p99 tput"))}
}
