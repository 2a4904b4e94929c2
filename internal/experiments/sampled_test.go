package experiments

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"ditto/internal/sim"
)

// sampledCellOpt is the sampled figure cell the determinism tests pin
// down: the figure_cell workload (fig8, nginx, quick windows) with
// steady-state sampling enabled.
func sampledCellOpt() Options {
	return Options{
		Windows:   Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
		TuneIters: 0,
		Apps:      []string{"nginx"},
		Seed:      3,
		Sampled:   true,
	}
}

// TestSampledFigureCellIdenticalAcrossPoolWidths extends the repo's
// byte-identity guarantee to sampled steady-state execution: the sampled
// figure cell must produce byte-identical output and identical results at
// -parallel 1 and -parallel 8. The sampler is per-kernel state seeded
// from the cell, so pool width must stay unobservable exactly as it is
// for fully executed cells.
func TestSampledFigureCellIdenticalAcrossPoolWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	run := func(parallel int) ([]byte, Fig8Result) {
		opt := sampledCellOpt()
		opt.Parallel = parallel
		var buf bytes.Buffer
		res := RunFig8(&buf, opt)
		return buf.Bytes(), res
	}
	outSerial, resSerial := run(1)
	outWide, resWide := run(8)
	if len(resSerial.Rows) == 0 {
		t.Fatal("serial run produced no rows")
	}
	checkGolden(t, outSerial)
	if !bytes.Equal(outSerial, outWide) {
		t.Fatalf("sampled output differs between -parallel 1 and -parallel 8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
			outSerial, outWide)
	}
	if !reflect.DeepEqual(resSerial, resWide) {
		t.Fatalf("sampled results differ between pool widths:\n%+v\nvs\n%+v", resSerial, resWide)
	}
}

// TestSampledFigureCellIdenticalAcrossIntraWidths checks the same
// guarantee along the other parallelism axis: shard workers advancing a
// sampled cell's event queues must be unobservable at every
// -intra-parallel width. The detector's detailed windows are positions of
// a deterministic global counter, so shard interleaving cannot move them.
func TestSampledFigureCellIdenticalAcrossIntraWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	run := func(intra int) ([]byte, Fig8Result) {
		opt := sampledCellOpt()
		opt.Parallel = 2
		opt.IntraParallel = intra
		var buf bytes.Buffer
		res := RunFig8(&buf, opt)
		return buf.Bytes(), res
	}
	outSerial, resSerial := run(1)
	if len(resSerial.Rows) == 0 {
		t.Fatal("intra=1 run produced no rows")
	}
	checkGolden(t, outSerial)
	for _, intra := range []int{2, 8} {
		out, res := run(intra)
		if !bytes.Equal(outSerial, out) {
			t.Fatalf("sampled output differs between -intra-parallel 1 and %d:\n--- intra=1 ---\n%s\n--- intra=%d ---\n%s",
				intra, outSerial, intra, out)
		}
		if !reflect.DeepEqual(resSerial, res) {
			t.Fatalf("sampled results differ between intra widths 1 and %d:\n%+v\nvs\n%+v",
				intra, resSerial, res)
		}
	}
}

// TestSampledFigureCellSeededRepeatIdentity pins the sampler's seeded
// reproducibility: two runs of the sampled figure cell with the same seed
// are byte-identical, and a different seed actually changes the rotation
// (guarding against a sampler that ignores its seed entirely).
func TestSampledFigureCellSeededRepeatIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	run := func(seed int64) []byte {
		opt := sampledCellOpt()
		opt.Seed = seed
		var buf bytes.Buffer
		RunFig8(&buf, opt)
		return buf.Bytes()
	}
	first := run(3)
	if len(first) == 0 {
		t.Fatal("run produced no output")
	}
	checkGolden(t, first)
	if again := run(3); !bytes.Equal(first, again) {
		t.Fatalf("seeded repeat differs:\n--- first ---\n%s\n--- second ---\n%s", first, again)
	}
	if other := run(4); bytes.Equal(first, other) {
		t.Fatal("different seeds produced identical output; the sampler's seed is dead")
	}
}

// BenchmarkFig8CellSampled is BenchmarkFig8Cell under sampled
// steady-state execution — the figure_cell_sampled artifact. The ratio
// against BenchmarkFig8Cell is the sampling speedup.
func BenchmarkFig8CellSampled(b *testing.B) {
	opt := Options{
		Windows:   Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
		TuneIters: 0,
		Quiet:     true,
		Apps:      []string{"nginx"},
		Seed:      1,
		Sampled:   true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunFig8(io.Discard, opt)
	}
}
