package experiments

import (
	"io"

	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/runner"
)

// FigSPoint is one (backend, variant) measurement of the storage-family
// experiment: latency percentiles plus the storage-side signals — device
// bandwidth, page-cache hit rate, and fsync latency on the commit path —
// original versus clone.
type FigSPoint struct {
	Backend string
	Variant string
	P50Ms   float64
	P95Ms   float64
	P99Ms   float64

	Throughput  float64 // completed requests per second
	DiskReadBW  float64 // server-side device read bytes/s (all server machines)
	DiskWriteBW float64 // server-side device write bytes/s (all server machines)
	PCHitRate   float64 // kernel page-cache hit rate over the measure window
	FsyncMeanMs float64 // adapter-machine fsync latency (WAL commit path)
	FsyncP99Ms  float64
	FsyncRate   float64 // fsyncs per second across server machines
}

// FigSResult is the storage-backend fidelity series.
type FigSResult struct {
	Points []FigSPoint
}

// fsBackends orders the content backends of the DittoFS family.
var fsBackends = []string{"mem", "lsm", "blob"}

// fsSpec is the storage experiment's server platform: Platform A with the
// page cache shrunk far below the dataset, so content reads contend for
// pages and eviction writeback is live during the measurement.
func fsSpec() platform.Spec {
	spec := platform.A()
	spec.PageCacheMB = 64
	return spec
}

// fsLoad shapes the NFS-style load: closed loop by default (qps <= 0), so
// per-backend service time sets the pace, or an open loop at the given rate.
func fsLoad(qps float64, seed int64) Load {
	return Load{QPS: qps, Conns: 12, Mix: loadgen.FSMix(), Seed: seed}
}

// RunFigS measures clone fidelity for the storage-bound family: each DittoFS
// content backend (mem, lsm, blob) is profiled, cloned, and then original
// and clone are measured under the same NFS-style mix, comparing latency
// percentiles, device bandwidth, page-cache hit rate, and WAL-path fsync
// latency. One prep cell per backend builds the clone; each (backend,
// variant) point is an independent cell, so the report is byte-identical at
// any -parallel width. qps <= 0 runs the closed loop (the default).
func RunFigS(w io.Writer, opt Options, qps float64) FigSResult {
	f := newFigure("figS", opt)
	var targets []*target
	for _, b := range fsBackends {
		t := newTarget(b, "figS", map[string]Load{"": fsLoad(qps, f.opt.Seed)})
		t.fs = b
		targets = append(targets, f.multiTarget(runner.Key("figS", b, "clone"), t, "", f.opt.Windows))
	}
	f.p.Barrier()
	var cells []cellSpec
	for _, t := range targets {
		for _, v := range variants {
			cells = append(cells, cellSpec{key: runner.Key("figS", t.fs, v), variant: v, tgt: t,
				plat: fsSpec(), win: f.opt.Windows, full: true,
				measure: func(d *Deployment, load Load, win Windows) any { return MeasureFS(d, load, win) }})
		}
	}
	addCells(f, cells, func(c cellSpec, out cellOut) []FigSPoint {
		pt := out.point.(FigSPoint)
		pt.Backend, pt.Variant = c.tgt.fs, c.variant
		return []FigSPoint{pt}
	}, func(w io.Writer, pt FigSPoint) {
		row(w, "figS: %-4s %-9s p50=%.3f p95=%.3f p99=%.3f thr=%.0f diskR=%.2fMB/s diskW=%.2fMB/s pc-hit=%.3f fsync=%.4f/%.4fms rate=%.0f/s",
			pt.Backend, pt.Variant, pt.P50Ms, pt.P95Ms, pt.P99Ms,
			pt.Throughput, pt.DiskReadBW/1e6, pt.DiskWriteBW/1e6,
			pt.PCHitRate, pt.FsyncMeanMs, pt.FsyncP99Ms, pt.FsyncRate)
	})
	return FigSResult{Points: rowsOf[FigSPoint](f.run(w, "figS: backend variant p50 p95 p99 thr diskR diskW pc-hit fsync-mean/p99 fsync-rate"))}
}
